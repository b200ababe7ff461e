package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/vm"
)

// ZipfSpec describes a skewed-sharing workload: every worker accesses its
// own disjoint 8-byte slot (false sharing, so the pages are genuinely
// Shared at AikidoSD's page granularity without racing), but the page
// each access targets is drawn from a Zipf distribution over the shared
// region. Skew is the dial: 0 spreads accesses uniformly across the
// pages, and larger exponents concentrate them onto the first few ranks —
// at 1.2, roughly half of all accesses land on the hottest page.
//
// The skew exists to stress page-keyed machinery: at high skew the hot
// pages are written by many threads every epoch and never demote.
type ZipfSpec struct {
	// Name labels the generated program.
	Name string
	// Threads is the number of worker threads.
	Threads int
	// Iters is the per-worker iteration count.
	Iters int
	// Pages is the number of shared pages accesses are drawn over.
	Pages int
	// OpsPerIter is the number of shared slot accesses per iteration.
	OpsPerIter int
	// AluOps is the number of non-memory instructions per iteration.
	AluOps int
	// Skew is the Zipf exponent: page rank r is drawn with probability
	// proportional to 1/(r+1)^Skew. 0 means uniform.
	Skew float64
	// WritePct is the percentage (0..100) of slot accesses that are
	// stores; 0 means the default of 50.
	WritePct int
}

// Validate checks the spec for structural problems.
func (s *ZipfSpec) Validate() error {
	if s.Threads < 1 || s.Iters < 1 {
		return fmt.Errorf("zipf %s: needs at least 1 thread and 1 iteration", s.Name)
	}
	if s.Pages < 1 || s.OpsPerIter < 1 {
		return fmt.Errorf("zipf %s: needs at least 1 page and 1 op", s.Name)
	}
	if s.Skew < 0 {
		return fmt.Errorf("zipf %s: negative skew %v", s.Name, s.Skew)
	}
	if 8+s.Threads*8 > vm.PageSize {
		return fmt.Errorf("zipf %s: %d worker slots exceed one page", s.Name, s.Threads)
	}
	if s.WritePct < 0 || s.WritePct > 100 {
		return fmt.Errorf("zipf %s: bad WritePct %d", s.Name, s.WritePct)
	}
	return nil
}

// SourceName implements Source.
func (s ZipfSpec) SourceName() string { return s.Name }

// Compile implements Source.
func (s ZipfSpec) Compile() (*isa.Program, error) { return BuildZipf(s) }

// zipfRanks draws n page indices from the spec's Zipf distribution by
// inverse-CDF walk over explicit weights (the standard-library sampler
// requires an exponent > 1; the dial must reach 0). The generator is
// seeded by the spec's shape only, so Compile stays a pure function.
func (s *ZipfSpec) zipfRanks(n int) []int {
	w := make([]float64, s.Pages)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s.Skew)
		total += w[i]
	}
	rng := rand.New(rand.NewSource(int64(s.Pages)<<16 ^ int64(n)))
	out := make([]int, n)
	for k := range out {
		u := rng.Float64() * total
		for i, wi := range w {
			u -= wi
			if u <= 0 || i == s.Pages-1 {
				out[k] = i
				break
			}
		}
	}
	return out
}

// Register plan (shares the false-sharing generator's conventions).
const (
	zfIdx  = isa.R2
	zfVal  = isa.R3
	zfW    = isa.R4
	zfSlot = isa.R5 // this worker's in-page slot offset
	zfT1   = isa.R6
	zfA    = isa.R7
	zfJoin = isa.R13
)

// BuildZipf compiles the spec into a program. The per-iteration page
// sequence is fixed at compile time (every worker executes the same PCs,
// as in the other generators); the skew lives in how often each page
// appears in that sequence.
func BuildZipf(s ZipfSpec) (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := isa.NewBuilder(s.Name)
	region := b.Global(s.Pages*vm.PageSize, vm.PageSize)
	pageSeq := s.zipfRanks(s.OpsPerIter)

	// --- main thread: spawn workers (serialized by lock 0), join, exit.
	tids := b.GlobalArray(s.Threads)
	for w := 0; w < s.Threads; w++ {
		b.Lock(0)
		b.MovImm(zfT1, int64(w))
		b.ThreadCreate("worker", zfT1)
		b.Unlock(0)
		b.StoreAbs(tids+uint64(w*8), isa.R0)
	}
	for w := 0; w < s.Threads; w++ {
		b.LoadAbs(zfJoin, tids+uint64(w*8))
		b.ThreadJoin(zfJoin)
	}
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	// --- worker: R0 = worker index.
	b.Label("worker")
	b.Mov(zfW, isa.R0)
	b.MovImm(zfVal, 1)
	// Slot offset: 8 + w*8 — disjoint 8-byte blocks per worker.
	b.MovImm(zfT1, 8)
	b.Mul(zfSlot, zfW, zfT1)
	b.AddImm(zfSlot, zfSlot, 8)

	pct := s.WritePct
	if pct == 0 {
		pct = 50
	}
	writes := (s.OpsPerIter*pct + 50) / 100
	b.LoopN(zfIdx, int64(s.Iters), func(b *isa.Builder) {
		for i := 0; i < s.AluOps; i++ {
			switch i % 3 {
			case 0:
				b.Add(zfVal, zfVal, zfIdx)
			case 1:
				b.Xor(zfVal, zfVal, zfIdx)
			case 2:
				b.Shl(zfVal, zfVal, 1)
			}
		}
		for i, p := range pageSeq {
			b.MovImm(zfT1, int64(region+uint64(p*vm.PageSize)))
			b.Add(zfA, zfT1, zfSlot)
			if i < writes {
				b.Store(zfA, 0, zfVal)
			} else {
				b.Load(zfVal, zfA, 0)
			}
		}
	})
	b.Halt()

	return b.Finish()
}
