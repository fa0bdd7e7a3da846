package rtm

import (
	"fmt"
	"math/rand"
	"testing"
)

// Shift-fault modeling: real racetrack shifts occasionally overshoot or
// undershoot by one domain (position errors — the reliability concern a
// production RTM controller must handle). FaultyEngine wraps a
// ShiftEngine with a per-shift error probability and a detect-and-correct
// controller: after every burst of shifts the position sensor is read
// and any residual misalignment is fixed with corrective shifts, which
// cost extra operations but preserve correctness. Fault injection is
// deterministic in the seed, so runs are reproducible. It is the
// Monte-Carlo oracle of ExpectedShiftOverhead.
type FaultyEngine struct {
	engine *ShiftEngine
	// ErrorRate is the per-shift probability of a one-domain position
	// error.
	errorRate float64
	rng       *rand.Rand

	faults     int64
	corrective int64
}

// NewFaultyEngine wraps a fresh engine with the fault model.
func NewFaultyEngine(domains, ports int, errorRate float64, seed int64) (*FaultyEngine, error) {
	if errorRate < 0 || errorRate >= 1 {
		return nil, fmt.Errorf("rtm: error rate must be in [0,1), got %v", errorRate)
	}
	e, err := NewShiftEngine(domains, ports)
	if err != nil {
		return nil, err
	}
	return &FaultyEngine{
		engine:    e,
		errorRate: errorRate,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Access aligns location x, injecting position errors and issuing
// corrective shifts as needed. It returns the total number of physical
// shift operations performed (nominal + slip replays + corrections).
func (f *FaultyEngine) Access(x int) (int, error) {
	nominal, err := f.engine.Access(x)
	if err != nil {
		return 0, err
	}
	if f.errorRate == 0 || nominal == 0 {
		return nominal, nil
	}
	// Each nominal shift may slip by one domain, overshooting (+1) or
	// undershooting (-1) with equal probability. The controller's
	// position sensor reads the offset after the burst; the residual
	// misalignment is the *signed net* slip — opposite-direction slips
	// physically cancel and need no correction — and each residual
	// domain takes one corrective shift (which may itself slip again).
	// Summing slip magnitudes instead would charge corrective shifts
	// for misalignment that no longer exists.
	total := nominal
	pending := nominal
	for pending > 0 {
		net := 0
		slips := 0
		for i := 0; i < pending; i++ {
			if f.rng.Float64() < f.errorRate {
				slips++
				if f.rng.Intn(2) == 0 {
					net++
				} else {
					net--
				}
			}
		}
		f.faults += int64(slips)
		if net < 0 {
			net = -net
		}
		if net == 0 {
			break
		}
		// Corrective burst: one shift per residual domain of net slip.
		f.corrective += int64(net)
		total += net
		pending = net
	}
	return total, nil
}

// ErrorRate returns the per-shift position-error probability the engine
// was built with.
func (f *FaultyEngine) ErrorRate() float64 { return f.errorRate }

// Faults returns the number of injected position errors so far.
func (f *FaultyEngine) Faults() int64 { return f.faults }

// CorrectiveShifts returns the extra shifts spent on re-alignment.
func (f *FaultyEngine) CorrectiveShifts() int64 { return f.corrective }

// NominalShifts returns the fault-free shift count (the cost model's
// number).
func (f *FaultyEngine) NominalShifts() int64 { return f.engine.Shifts() }

// Reset cold-starts the engine and clears fault counters (the fault RNG
// stream continues, so distinct phases see distinct errors).
func (f *FaultyEngine) Reset() {
	f.engine.Reset()
	f.faults = 0
	f.corrective = 0
}

func TestFaultyEngineZeroRateMatchesIdeal(t *testing.T) {
	ideal, _ := NewShiftEngine(64, 1)
	faulty, err := NewFaultyEngine(64, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x := rng.Intn(64)
		a, _ := ideal.Access(x)
		b, err := faulty.Access(x)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("access %d: faulty(0) cost %d != ideal %d", i, b, a)
		}
	}
	if faulty.Faults() != 0 || faulty.CorrectiveShifts() != 0 {
		t.Error("zero-rate engine recorded faults")
	}
}

func TestFaultyEngineOverheadScalesWithRate(t *testing.T) {
	run := func(rate float64) (physical, nominal int64) {
		f, err := NewFaultyEngine(128, 1, rate, 7)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			n, err := f.Access(rng.Intn(128))
			if err != nil {
				t.Fatal(err)
			}
			physical += int64(n)
		}
		return physical, f.NominalShifts()
	}
	p0, n0 := run(0)
	if p0 != n0 {
		t.Fatalf("zero rate: physical %d != nominal %d", p0, n0)
	}
	pLow, nLow := run(0.01)
	pHigh, nHigh := run(0.10)
	if nLow != n0 || nHigh != n0 {
		t.Fatal("nominal counts must be rate-independent")
	}
	if pLow <= n0 {
		t.Errorf("1%% rate produced no overhead: %d vs %d", pLow, n0)
	}
	if pHigh <= pLow {
		t.Errorf("10%% rate (%d) not costlier than 1%% (%d)", pHigh, pLow)
	}
	// Overhead should stay near rate/(1-rate): ~11% for rate 0.10.
	overhead := float64(pHigh-n0) / float64(n0)
	if overhead > 0.2 {
		t.Errorf("10%% rate overhead %.1f%% implausibly high", 100*overhead)
	}
}

func TestFaultyEngineDeterministic(t *testing.T) {
	run := func() int64 {
		f, _ := NewFaultyEngine(64, 1, 0.05, 42)
		rng := rand.New(rand.NewSource(9))
		var total int64
		for i := 0; i < 500; i++ {
			n, _ := f.Access(rng.Intn(64))
			total += int64(n)
		}
		return total
	}
	if run() != run() {
		t.Error("fault injection not deterministic for a fixed seed")
	}
}

// TestFaultyEngineSignedSlipExpectation pins the corrected burst model
// across error rates: slips are ±1 with equal probability, so the
// residual misalignment a burst needs correcting is the *net* slip, not
// the slip count. For a burst of n shifts at rate r the net slip is a
// sum of k ~ Bin(n, r) independent signs: mean 0, variance E[k] = n·r,
// hence E|net| ≈ sqrt(2·n·r/π) (half-normal), plus the geometric tail
// of the recursive correction rounds. With n = 100 that is ≈ 1.8 / 4.2
// / 7 corrective shifts per burst at r = 0.05 / 0.2 / 0.4 — where the
// magnitude-sum model would charge ≈ r/(1-r)·n (5.3 / 25 / 67). The
// test drives 2000 identical 100-shift bursts per rate and pins the
// mean corrective cost to the corrected expectation's band; the
// standard error of each mean is well under a tenth of the band width.
func TestFaultyEngineSignedSlipExpectation(t *testing.T) {
	const (
		bursts = 2000
		n      = 100
	)
	cases := []struct {
		rate                         float64
		minCorrective, maxCorrective float64
		minFaults, maxFaults         float64
	}{
		{rate: 0.05, minCorrective: 1.0, maxCorrective: 3.0, minFaults: 3.5, maxFaults: 7.5},
		{rate: 0.2, minCorrective: 2.5, maxCorrective: 5.5, minFaults: 15, maxFaults: 26},
		{rate: 0.4, minCorrective: 4.0, maxCorrective: 10.5, minFaults: 34, maxFaults: 55},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("rate=%v", tc.rate), func(t *testing.T) {
			f, err := NewFaultyEngine(n+1, 1, tc.rate, 11)
			if err != nil {
				t.Fatal(err)
			}
			if f.ErrorRate() != tc.rate {
				t.Fatalf("ErrorRate() = %v, want %v", f.ErrorRate(), tc.rate)
			}
			f.Access(0) // warm up: the first access is free
			for i := 0; i < bursts; i++ {
				if i%2 == 0 {
					f.Access(n)
				} else {
					f.Access(0)
				}
			}
			meanCorrective := float64(f.CorrectiveShifts()) / bursts
			if meanCorrective < tc.minCorrective || meanCorrective > tc.maxCorrective {
				t.Errorf("mean corrective shifts per %d-shift burst = %.2f, want in [%.1f, %.1f] (signed net slip)",
					n, meanCorrective, tc.minCorrective, tc.maxCorrective)
			}
			// The old magnitude-sum accounting would sit near r/(1-r)·n
			// per burst; anything close means cancellation is broken.
			if magnitude := tc.rate / (1 - tc.rate) * n; meanCorrective > magnitude/2 {
				t.Errorf("mean corrective %.2f per burst near the magnitude-sum model's %.1f: opposite-direction slips are not cancelling",
					meanCorrective, magnitude)
			}
			// Faults counts every injected slip; corrections only the
			// residual.
			meanFaults := float64(f.Faults()) / bursts
			if meanFaults < tc.minFaults || meanFaults > tc.maxFaults {
				t.Errorf("mean injected slips per burst = %.2f, want in [%.1f, %.1f]", meanFaults, tc.minFaults, tc.maxFaults)
			}
			if f.CorrectiveShifts() >= f.Faults() {
				t.Errorf("corrective shifts %d not below injected slips %d", f.CorrectiveShifts(), f.Faults())
			}
		})
	}
}

// TestExpectedShiftOverheadBoundsEngine checks the analytic 1/(1-p)
// factor the fault-aware cost model prices with: it must upper-bound
// the measured physical/nominal shift ratio of a real FaultyEngine run
// (signed-slip cancellation keeps the truth below the bound) while
// staying meaningful — at least 1, and exceeded by no run.
func TestExpectedShiftOverheadBoundsEngine(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.05, 0.2, 0.4} {
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			bound, err := ExpectedShiftOverhead(rate)
			if err != nil {
				t.Fatal(err)
			}
			if bound < 1 {
				t.Fatalf("bound %v below 1", bound)
			}
			f, err := NewFaultyEngine(128, 1, rate, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			var physical int64
			for i := 0; i < 2000; i++ {
				c, err := f.Access(rng.Intn(128))
				if err != nil {
					t.Fatal(err)
				}
				physical += int64(c)
			}
			nominal := f.NominalShifts()
			if nominal == 0 {
				t.Fatal("no nominal shifts")
			}
			ratio := float64(physical) / float64(nominal)
			if ratio > bound {
				t.Errorf("measured overhead %.4f exceeds the analytic bound %.4f at rate %v", ratio, bound, rate)
			}
			if rate == 0 && ratio != 1 {
				t.Errorf("zero-rate ratio %v != 1", ratio)
			}
		})
	}
	if _, err := ExpectedShiftOverhead(-0.1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := ExpectedShiftOverhead(1); err == nil {
		t.Error("rate 1 accepted (the series diverges)")
	}
}

func TestFaultyEngineValidation(t *testing.T) {
	if _, err := NewFaultyEngine(64, 1, -0.1, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewFaultyEngine(64, 1, 1.0, 1); err == nil {
		t.Error("rate 1.0 accepted (correction would never terminate)")
	}
	f, _ := NewFaultyEngine(8, 1, 0.1, 1)
	if _, err := f.Access(9); err == nil {
		t.Error("out-of-range access accepted")
	}
	f.Access(3)
	f.Reset()
	if f.NominalShifts() != 0 {
		t.Error("Reset did not clear the engine")
	}
}
