// Package tensor generates scratchpad access traces for tiled tensor
// contractions — the workload of the paper's companion study (Khan et
// al., LCTES'19, the paper's ref [5]), which ran tensor contractions on
// racetrack-memory scratchpads. Each scratchpad-resident tile element is
// one memory object, so contraction loop nests produce long, highly
// structured access sequences: perfect stress tests for the placement
// algorithms, with tunable reuse distance via loop order and tile shape.
package tensor

import (
	"fmt"

	"repro/internal/trace"
)

// LoopOrder names the permutation of the (i, j, k) contraction loops.
type LoopOrder string

// The three canonical matmul loop orders.
const (
	// IJK is the inner-product order: C row-major, long A-row reuse.
	IJK LoopOrder = "ijk"
	// IKJ is the row-streaming order: B rows stream through the inner loop.
	IKJ LoopOrder = "ikj"
	// JKI is the column order: maximally strided accesses.
	JKI LoopOrder = "jki"
)

// Contraction describes a tiled matrix multiplication
// C[i,j] += A[i,k] * B[k,j] with all three tiles scratchpad-resident.
type Contraction struct {
	// I, J, K are the tile dimensions.
	I, J, K int
	// Order is the loop permutation.
	Order LoopOrder
	// Accumulate marks C accesses as read-modify-write (one read + one
	// write per update); otherwise C is write-only per update.
	Accumulate bool
}

// Validate checks the shape.
func (c Contraction) Validate() error {
	if c.I <= 0 || c.J <= 0 || c.K <= 0 {
		return fmt.Errorf("tensor: dimensions must be positive, got %dx%dx%d", c.I, c.J, c.K)
	}
	switch c.Order {
	case IJK, IKJ, JKI, "":
		return nil
	}
	return fmt.Errorf("tensor: unknown loop order %q", c.Order)
}

// Trace emits the access sequence of the contraction. Element naming:
// A<i>_<k>, B<k>_<j>, C<i>_<j>.
func (c Contraction) Trace() (*trace.Sequence, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	order := c.Order
	if order == "" {
		order = IJK
	}
	var tokens []string
	update := func(i, j, k int) {
		a := fmt.Sprintf("A%d_%d", i, k)
		b := fmt.Sprintf("B%d_%d", k, j)
		cc := fmt.Sprintf("C%d_%d", i, j)
		tokens = append(tokens, a, b)
		if c.Accumulate {
			tokens = append(tokens, cc)
		}
		tokens = append(tokens, cc+"!")
	}
	switch order {
	case IJK:
		for i := 0; i < c.I; i++ {
			for j := 0; j < c.J; j++ {
				for k := 0; k < c.K; k++ {
					update(i, j, k)
				}
			}
		}
	case IKJ:
		for i := 0; i < c.I; i++ {
			for k := 0; k < c.K; k++ {
				for j := 0; j < c.J; j++ {
					update(i, j, k)
				}
			}
		}
	case JKI:
		for j := 0; j < c.J; j++ {
			for k := 0; k < c.K; k++ {
				for i := 0; i < c.I; i++ {
					update(i, j, k)
				}
			}
		}
	}
	return trace.NewNamedSequence(tokens...)
}

// Suite returns a set of contraction shapes spanning the regimes the
// LCTES study evaluates: small square tiles, skewed tiles, and the three
// loop orders on a common shape.
func Suite() []Contraction {
	return []Contraction{
		{I: 4, J: 4, K: 4, Order: IJK, Accumulate: true},
		{I: 4, J: 4, K: 4, Order: IKJ, Accumulate: true},
		{I: 4, J: 4, K: 4, Order: JKI, Accumulate: true},
		{I: 8, J: 2, K: 8, Order: IJK, Accumulate: true},
		{I: 2, J: 16, K: 2, Order: IKJ, Accumulate: true},
		{I: 6, J: 6, K: 6, Order: IJK, Accumulate: false},
	}
}

// Benchmark wraps the suite as a trace.Benchmark for the evaluation
// drivers.
func Benchmark() (*trace.Benchmark, error) {
	b := &trace.Benchmark{Name: "tensor"}
	for _, c := range Suite() {
		s, err := c.Trace()
		if err != nil {
			return nil, err
		}
		b.Sequences = append(b.Sequences, s)
	}
	return b, nil
}
