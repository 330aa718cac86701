// Package lib pins down suppression scoping: one line triggers two
// analyzers, the directive names exactly one of them, and only that one
// goes quiet.
package lib

// Head's return both lets a literal escape (escape) and indexes with an
// unguarded parameter (boundsproof). The directive suppresses escape alone;
// the boundsproof finding on the same line must survive.
//
//lint:hotpath scoping fixture
func Head(xs []int64, i int) []int64 {
	//lint:ignore escape the fixture wants only the escape finding silenced-by-name
	return []int64{xs[i]}
}
