package noc

// ForceSampling makes n sweep its sensor banks every period even when
// its sensor config is static: the reference the sweep elision is
// checked against. Call it right after New.
func ForceSampling(n *Network) { n.elideSweeps = false }

// SummaryWords returns the length of n's router active-set summary: one
// word per 64 words of per-router bits.
func SummaryWords(n *Network) int { return len(n.rtr.sum) }
