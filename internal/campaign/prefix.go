package campaign

// PrefixStats is the zero-valued remnant of the deleted prefix-sharing
// evaluator's statistics. SimTime would count the virtual time actually
// simulated and PlainTime the virtual time plain evaluation simulates.
//
// Deprecated: every pipeline evaluates each run from scratch, so no
// code path writes these fields; they stay for callers that still read
// them.
type PrefixStats struct {
	SimTime   int64
	PlainTime int64
}

// PrefixStatsSink is accepted by the deprecated PrefixStats option
// fields and never written.
//
// Deprecated: Stats always returns the zero PrefixStats.
type PrefixStatsSink struct{}

// Stats returns the zero PrefixStats: nothing shares a prefix.
func (*PrefixStatsSink) Stats() PrefixStats { return PrefixStats{} }
