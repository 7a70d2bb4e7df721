// Package testdata exercises the registryhygiene analyzer against a local
// mirror of the root package's registry shape. The test supplies its own
// fact table (see registryhygiene_test.go). Each // want comment holds a
// regexp the diagnostic reported on that line must match.
package testdata

type Result struct{}

type Options struct{}

type Experiment struct {
	Name        string
	Description string
	Aliases     []string
	Run         func(Options) (*Result, error)
}

func Register(e Experiment) {}

func runStub(Options) (*Result, error) { return nil, nil }

// goodCacheID stands in for the registry.TestbedCell/Cell Key or
// cache.NewKey id site: the literal carrying the declared "good/" prefix.
const goodCacheID = "good/run"

// scenarioPrefix stands in for the root package's CachePrefix cross-check:
// the literal carrying the "scenario/" namespace.
const scenarioPrefix = "scenario/"

var suffix = "computed"

func makeExp() Experiment { return Experiment{} }

// RegisterScenario and RegisterScenarioFile mirror the root package's
// scenario funnels: Register calls inside their bodies legitimately pass a
// compiled, non-literal Experiment.
func RegisterScenario(name string) {
	e := Experiment{Name: name, Description: "compiled", Run: runStub}
	Register(e)
}

func RegisterScenarioFile(path string) (string, error) {
	e := makeExp()
	Register(e)
	return e.Name, nil
}

func init() {
	Register(Experiment{
		Name:        "good",
		Description: "a fully literal registration whose cache prefix exists",
		Aliases:     []string{"g"},
		Run:         runStub,
	})
	Register(Experiment{ // want `missing Name`
		Description: "no name at all",
		Run:         runStub,
	})
	Register(Experiment{
		Name:        "x" + suffix, // want `Name must be a string literal`
		Description: "computed name",
		Run:         runStub,
	})
	Register(Experiment{
		Name:        "emptydesc",
		Description: "", // want `Description must be non-empty`
		Run:         runStub,
	})
	Register(Experiment{
		Name:        "nilrun",
		Description: "run is the nil literal",
		Run:         nil, // want `Run must not be nil`
	})
	Register(Experiment{
		Name:        "dup",
		Description: "first registration wins",
		Run:         runStub,
	})
	Register(Experiment{ // want `already registered`
		Name:        "dup",
		Description: "second registration would panic at init",
		Run:         runStub,
	})
	Register(Experiment{ // want `already registered`
		Name:        "aliased",
		Description: "alias collides with an existing name",
		Aliases:     []string{"good"},
		Run:         runStub,
	})
	Register(Experiment{ // want `no cache-id entry in the fact table`
		Name:        "unknown",
		Description: "not in the fact table",
		Run:         runStub,
	})
	Register(Experiment{ // want `no string literal in the package starts with it`
		Name:        "ghostprefix",
		Description: "declares a prefix that appears nowhere",
		Run:         runStub,
	})
	Register(makeExp()) // want `must be a literal Experiment`

	// The scenario funnel rules.
	RegisterScenario("scenario-good")
	RegisterScenario("x" + suffix)        // want `name must be a non-empty string literal`
	RegisterScenario("scenario-good")     // want `already registered`
	RegisterScenario("scenario-unknown")  // want `no cache-id entry in the fact table`
	RegisterScenario("scenario-badentry") // want `must declare the "scenario/" cache namespace`
}
