package noc

// ForceSampling makes n sweep its sensor banks every period even when
// its sensor config is static: the reference the sweep elision is
// checked against. Call it right after New.
func ForceSampling(n *Network) { n.elideSweeps = false }
