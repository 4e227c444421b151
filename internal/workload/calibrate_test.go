package workload

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"github.com/tieredmem/mtat/internal/mem"
)

var update = flag.Bool("update", false, "print re-solved LC CPUSeconds (TestLCProfilesCalibrated)")

// calibratedMaxLoad is the max SLO-compliant load, as a fraction of Table
// 1's Max Load, that each LC profile's CPUSeconds is solved for at the
// highest FMem hit ratio the paper geometry allows: 2% above Max Load,
// the FMEM_ALL headroom.
const calibratedMaxLoad = 1.02

// maxLoadAtHmax returns cfg's max stable load fraction, with CPUSeconds
// set to cpu, at the highest FMem hit ratio the paper geometry allows
// the workload.
func maxLoadAtHmax(t *testing.T, cfg LCConfig, cpu float64) float64 {
	t.Helper()
	cfg.CPUSeconds = cpu
	sys := newLabSystem(t)
	lc, err := NewLC(sys, cfg, mem.TierSMem, 1)
	if err != nil {
		t.Fatal(err)
	}
	hmax := math.Min(1, float64(sys.FMemCapacityPages())/float64(sys.TotalPages(lc.ID())))
	return lc.MaxStableLoadFrac(hmax, 0)
}

// TestLCProfilesCalibrated checks that each committed LC CPUSeconds is the
// Table 1 calibration, MaxStableLoadFrac(hmax) = 1.02, solved and rounded
// to three significant digits. The exact solution then lies within half
// a unit of the third digit, h, of the committed value. Max load falls as
// CPU time grows, so that holds iff the max load is at least 1.02 at
// CPUSeconds-h and at most 1.02 at CPUSeconds+h. After a change to the
// queueing model or the memory latencies, print re-solved values with
//
//	go test ./internal/workload -run TestLCProfilesCalibrated -update -v
//
// and copy them into profiles.go.
func TestLCProfilesCalibrated(t *testing.T) {
	for _, cfg := range LCConfigs() {
		cpu := cfg.CPUSeconds
		if *update {
			lo, hi := 1e-7, 1e-3
			for i := 0; i < 60; i++ {
				mid := (lo + hi) / 2
				if maxLoadAtHmax(t, cfg, mid) > calibratedMaxLoad {
					lo = mid
				} else {
					hi = mid
				}
			}
			fmt.Printf("%-10s CPUSeconds: %.3g (committed %.3g)\n", cfg.Name, lo, cpu)
			continue
		}
		h := 0.5 * math.Pow(10, math.Floor(math.Log10(cpu))-2)
		above, below := maxLoadAtHmax(t, cfg, cpu-h), maxLoadAtHmax(t, cfg, cpu+h)
		if above < calibratedMaxLoad || below > calibratedMaxLoad {
			t.Errorf("%s: CPUSeconds %.3g is not the calibration rounded to 3 digits: max load %.4f at %.4g s, %.4f at %.4g s, want %g between (re-solve with -update)",
				cfg.Name, cpu, above, cpu-h, below, cpu+h, calibratedMaxLoad)
		}
	}
}
