package main

import (
	"fmt"
	"strings"
	"time"

	"llbp/internal/trace"
	"llbp/internal/workload"
)

// The host this benchmark was built on changes speed by up to 2× over
// seconds and by 20-40% between runs minutes apart, moving every
// time-based metric of a run together (README.md, Host speed). A run
// therefore measures the host too: before every set-up and every unit,
// with the daemon idle and the heap collected, it times a reference
// kernel that does not depend on the program's code. Each time and rate
// is reported scaled by the median kernel speed h of its phase against
// refNominal, the kernel's speed on the host the reference figures were
// measured on: a time × h/refNominal, a rate × refNominal/h. A change to
// the program moves the metrics; a change in the host's speed moves the
// kernel as well and cancels. So would a slowdown that the kernel shares
// with the program, which is why the daemon is idle and the heap
// collected whenever the kernel runs. The factor is the speed ratio
// itself, with no larger power, so a shared slowdown is at most
// cancelled, never turned into a gain.
const refNominal = 15e6 // reference-kernel branches/s

// hostScale is the factor that takes metric name, measured on a host
// whose kernel speed is h, to the reference host. Rates end in "_per_s";
// peak memory is not scaled.
func hostScale(name string, h float64) float64 {
	switch {
	case name == "peak_rss_mb":
		return 1
	case strings.HasSuffix(name, "_per_s"):
		return refNominal / h
	default:
		return h / refNominal
	}
}

// calibBranches is the reference kernel's input: the first branches of
// the catalog Tomcat stream, the same in every run whatever the seed.
const calibBranches = 100_000

// refPredictor is the reference kernel: a bimodal-plus-tagged predictor
// written here, independent of the program's code, with the same kind of
// data-dependent branches and table accesses a predictor replay has. Its
// tables (4.25 MB) do not fit in a core's L2 cache, so the kernel feels
// other tenants' use of the shared cache as well as of the core. Its
// speed measures the host, not the program.
type refPredictor struct {
	ghr  uint64
	bim  [1 << refBimBits]int8
	tabs [4][1 << refTabBits]uint32
}

var refLens = [4]uint{5, 11, 23, 47}

const refBimBits, refTabBits = 18, 18

func (r *refPredictor) run(bs []trace.Branch) (misp int) {
	for i := range bs {
		b := &bs[i]
		if !b.Type.IsConditional() {
			r.ghr = r.ghr<<1 ^ b.PC>>2&1
			continue
		}
		pc := b.PC >> 2
		bi := pc & (1<<refBimBits - 1)
		pred := r.bim[bi] >= 0
		hit := -1
		var idx, tag [4]uint32
		for t := 3; t >= 0; t-- {
			h := r.ghr & (1<<refLens[t] - 1)
			h ^= h >> 12
			idx[t] = uint32((pc ^ h*0x9e3779b1 ^ h>>7) & (1<<refTabBits - 1))
			tag[t] = uint32((pc>>3 ^ h*0x9e37) & 0xff)
			if e := r.tabs[t][idx[t]]; hit < 0 && e>>8 == tag[t] && e&0x80 != 0 {
				hit, pred = t, e&0x40 != 0
			}
		}
		if pred != b.Taken {
			misp++
			if hit < 3 {
				r.tabs[hit+1][idx[hit+1]] = tag[hit+1]<<8 | 0x80
			}
		}
		if hit >= 0 {
			if b.Taken {
				r.tabs[hit][idx[hit]] |= 0x40
			} else {
				r.tabs[hit][idx[hit]] &^= 0x40
			}
		}
		if c := &r.bim[bi]; b.Taken && *c < 3 {
			*c++
		} else if !b.Taken && *c > -4 {
			*c--
		}
		r.ghr <<= 1
		if b.Taken {
			r.ghr |= 1
		}
	}
	return misp
}

// calibration holds the reference kernel's input.
type calibration struct {
	input []trace.Branch
}

func newCalibration() (*calibration, error) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		return nil, err
	}
	bs := make([]trace.Branch, calibBranches)
	if n, err := wl.OpenBatch().ReadBatch(bs); n != len(bs) {
		return nil, fmt.Errorf("reading the calibration input: %d branches, %v", n, err)
	}
	return &calibration{input: bs}, nil
}

// measure runs the reference kernel twice over the input, each time
// with fresh tables allocated before the clock starts, and returns its
// speed in branches/s.
func (c *calibration) measure() float64 {
	rs := [2]*refPredictor{new(refPredictor), new(refPredictor)}
	t0 := time.Now()
	for _, r := range rs {
		calibSink += r.run(c.input)
	}
	return float64(2*len(c.input)) / time.Since(t0).Seconds()
}

var calibSink int
