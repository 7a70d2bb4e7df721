package greenenvy

import (
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/testbed"
)

// TestDiagFig4Savings is a development diagnostic; run with -v.
func TestDiagFig4Savings(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic")
	}
	bytes := uint64(10 * registry.PaperGbit * 0.1)
	for _, serial := range []bool{false, true} {
		tb := testbed.New(testbed.Options{Senders: 2, UseDRR: !serial, Seed: 1, MeasureNoise: 1e-9})
		for i := 0; i < 2; i++ {
			if err := tb.AddLoad(i, 0.25); err != nil {
				t.Fatal(err)
			}
		}
		c1, _ := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic"})
		c2, _ := tb.AddFlow(1, iperf.Spec{Bytes: bytes, CCA: "cubic"})
		if serial {
			c2.StartAfter(c1)
		} else {
			tb.SetWeight(c1.Report().Flow, 0.5)
			tb.SetWeight(c2.Report().Flow, 0.5)
		}
		res, err := tb.Run(registry.DeadlineFor(2 * bytes))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("serial=%v dur=%v totalJ=%.2f perHost=%v fct1=%.4f fct2=%.4f retx=%d",
			serial, res.Duration, res.TotalSenderJ, res.SenderEnergyJ,
			res.Reports[0].Seconds, res.Reports[1].Seconds, res.Retransmits)
	}
}
