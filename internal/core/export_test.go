package core

// The external tests (package core_test), which may import the catalog
// machines built on this package, share these internal test helpers.
var (
	Gossip         = gossip
	GeneratedGraph = generatedGraph
)
