package plan

import (
	"math"
	"sync"
)

// calibAlpha is the EWMA weight of one new cardinality observation.
// Small enough that a single pathological clause cannot yank the
// factor, large enough that a dozen ExplainAnalyze runs converge.
const calibAlpha = 0.2

// calibMaxRatio clamps a single observed actual/estimated ratio (and
// the resulting factor) to [1/64, 64]: beyond that the estimate is not
// being recalibrated, it is being replaced, and a multiplicative
// correction that large would swamp every admission threshold.
const calibMaxRatio = 64.0

// Calibration is the planner cost model's feedback loop: an
// exponentially weighted moving average, in log space, of the ratio
// between actual and estimated output cardinalities as measured by
// ExplainAnalyze. The resulting Factor multiplies the chosen plan's
// absolute estimates — uniformly, so relative plan choice is
// unaffected, but everything keyed to absolute cost (Engine.QueryCost's
// cheapness classification, EXPLAIN's reported numbers) tracks the
// workload instead of the model's birth constants.
//
// Log space makes over- and under-estimation symmetric: a 4x over- and
// a 4x under-estimate cancel, rather than averaging to "over".
//
// A Calibration is safe for concurrent use; the zero value and nil are
// both valid (factor 1, observations dropped on nil).
type Calibration struct {
	mu      sync.Mutex
	logBias float64
	samples int
}

// NewCalibration returns an empty calibration (factor 1).
func NewCalibration() *Calibration { return &Calibration{} }

// Observe folds one measured clause cardinality into the average.
// Non-positive estimates are skipped (nothing to calibrate against);
// zero actuals are floored at one half so empty results still pull the
// factor down instead of being dropped.
func (c *Calibration) Observe(estimated, actual float64) {
	if c == nil || estimated <= 0 || math.IsNaN(actual) || actual < 0 {
		return
	}
	r := math.Log(math.Max(actual, 0.5) / estimated)
	limit := math.Log(calibMaxRatio)
	r = math.Max(-limit, math.Min(limit, r))
	c.mu.Lock()
	if c.samples == 0 {
		c.logBias = r
	} else {
		c.logBias = (1-calibAlpha)*c.logBias + calibAlpha*r
	}
	c.samples++
	c.mu.Unlock()
}

// Factor returns the multiplicative correction exp(EWMA of
// ln(actual/estimated)), clamped to [1/calibMaxRatio, calibMaxRatio].
// 1 means uncalibrated or perfectly estimated.
func (c *Calibration) Factor() float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.samples == 0 {
		return 1
	}
	return math.Max(1/calibMaxRatio, math.Min(calibMaxRatio, math.Exp(c.logBias)))
}

// Samples returns the number of observations folded in so far.
func (c *Calibration) Samples() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}
