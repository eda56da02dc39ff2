package gateway

// RendezvousScore exposes placement to the external tests, which need a
// session name that lands on a chosen backend.
var RendezvousScore = rendezvousScore
