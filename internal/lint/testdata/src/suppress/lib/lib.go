// Package lib exercises the //lint:ignore directive forms. The expectations
// live in lint_test.go's TestSuppression rather than want comments, because
// the malformed-directive findings land on the directive lines themselves.
package lib

// Detach is a fire-and-forget helper whose leak is deliberate.
func Detach(f func()) {
	//lint:ignore golifecycle deliberate fire-and-forget; joined by process lifetime
	go f()
}

// DetachTrailing suppresses on the same line.
func DetachTrailing(f func()) {
	go f() //lint:ignore golifecycle deliberate fire-and-forget; joined by process lifetime
}

// NoReason shows a directive missing its reason: the directive is reported
// and the finding it meant to silence survives.
func NoReason(f func()) {
	//lint:ignore golifecycle
	go f()
}

// WrongCheck shows a directive naming an unknown check.
func WrongCheck(f func()) {
	//lint:ignore nosuchcheck because reasons
	go f()
}

// Stale carries a well-formed directive that suppresses nothing: the
// goroutine below it is joined, so golifecycle never fires and the directive
// is dead weight the stale-suppression audit must report.
func Stale(f func()) {
	done := make(chan struct{})
	//lint:ignore golifecycle this excuse outlived the finding it excused
	go func() {
		defer close(done)
		f()
	}()
	<-done
}
