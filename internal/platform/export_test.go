package platform

// LinkRoute, RefRouteBetween and RouteMismatch expose the reference
// resolver (routeref_test.go) and its comparison to this package's
// external tests.
type LinkRoute = linkRoute

// RefRouteBetween resolves src->dst with the reference resolver.
func RefRouteBetween(p *Platform, src, dst string) (LinkRoute, error) {
	return p.refRouteBetween(src, dst)
}

// RouteMismatch reports how a compiled route differs from a reference
// route, or nil when it is bit-identical.
func RouteMismatch(s *Snapshot, want LinkRoute, got *CompiledRoute) error {
	return routeMismatch(s, want, got)
}
