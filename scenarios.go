package greenenvy

import (
	"fmt"

	"greenenvy/internal/scenario"
)

// The scenario language (internal/scenario) compiles declarative
// topology/AQM/CCA/flow specs into registry experiments. Built-in specs
// register here at init through RegisterScenario; user spec files enter
// through RegisterScenarioFile (greenbench -scenario).

func init() {
	RegisterScenario("aqm-matrix")
}

// RegisterScenario compiles the named built-in spec (scenario.Builtin) and
// registers the resulting experiment. It panics on unknown names and
// non-compiling specs: built-ins register at init time, so a failure is a
// programmer error, not a runtime condition.
func RegisterScenario(name string) {
	spec, ok := scenario.Builtin(name)
	if !ok {
		panic(fmt.Sprintf("greenenvy: no built-in scenario %q (have %v)", name, scenario.BuiltinNames()))
	}
	e, err := scenario.Compile(spec)
	if err != nil {
		panic(fmt.Sprintf("greenenvy: built-in scenario %q does not compile: %v", name, err))
	}
	Register(e)
}

// RegisterScenarioFile loads a JSON spec file, compiles it, and registers
// the resulting experiment under the spec's name. Unlike
// RegisterScenario it returns errors instead of panicking — user files are
// runtime input — and rejects names that collide with an already-registered
// experiment before touching the registry (Register would panic).
func RegisterScenarioFile(path string) (string, error) {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return "", err
	}
	e, err := scenario.Compile(spec)
	if err != nil {
		return "", fmt.Errorf("%w (in %s)", err, path)
	}
	if _, exists := LookupExperiment(e.Name); exists {
		return "", fmt.Errorf("greenenvy: scenario %q (in %s) collides with a registered experiment; rename the spec", e.Name, path)
	}
	Register(e)
	return e.Name, nil
}
