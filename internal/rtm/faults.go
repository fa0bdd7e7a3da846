package rtm

import "fmt"

// ExpectedShiftOverhead returns the analytic upper bound on the
// physical-to-nominal shift ratio of a track whose shifts fail at the
// given rate. The fault model: every shift slips by one domain, over or
// under, with probability p, and a detect-and-correct controller reads
// the position after each burst of shifts and re-aligns the track with
// one corrective shift per residual domain, which may itself slip. That
// gives the geometric series 1 + p + p² + ... = 1/(1-p). It is an upper
// bound, not the exact expectation: within a burst, opposite-direction
// slips physically cancel before the controller corrects anything, so
// measured overhead is at or below this factor. The Monte-Carlo
// FaultyEngine of the package tests replays the model, and
// TestExpectedShiftOverheadBoundsEngine holds this bound to it.
func ExpectedShiftOverhead(errorRate float64) (float64, error) {
	if errorRate < 0 || errorRate >= 1 {
		return 0, fmt.Errorf("rtm: error rate must be in [0,1), got %v", errorRate)
	}
	return 1 / (1 - errorRate), nil
}
