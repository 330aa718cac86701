// Package lib exercises the goroutine-termination contract: every go
// statement reachable from an exported function needs a path to return or a
// signal the outside world can fire. No spawner here waits for its
// goroutine, so the go statements also trip the join rule — all but Serve's
// and Drain's, whose function text holds a receive (inside the goroutine).
package lib

import "context"

// Run starts a spinner with no way out: spin's loop has no exit path and no
// channel or context to unblock it.
func Run() {
	go spin() // want "go statement without a join" "goroutine can never terminate"
}

func spin() {
	for {
		step()
	}
}

func step() {}

// Start leaks one level down: the go statement sits in an unexported helper
// that only an exported function reaches.
func Start() {
	helper()
}

func helper() {
	go func() { // want "go statement without a join" "goroutine can never terminate"
		for {
			step()
		}
	}()
}

// Forever blocks on an empty select, which nothing can ever fire.
func Forever() {
	go func() { // want "go statement without a join" "goroutine can never terminate"
		select {}
	}()
}

// Serve is the sanctioned shape: the loop watches ctx.Done.
func Serve(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				step()
			}
		}
	}()
}

// Drain terminates when the caller closes ch.
func Drain(ch chan int) {
	go func() {
		for range ch {
			step()
		}
	}()
}

// Once runs to completion on its own; a reachable exit is a termination
// path even with no channels in sight.
func Once() {
	go func() { // want "go statement without a join"
		step()
	}()
}

// orphanage is dead code: its leak is not reachable from any exported
// function, so the termination rule (scoped to the exported surface) stays
// quiet; the join rule still applies.
func orphanage() {
	go func() { // want "go statement without a join"
		for {
		}
	}()
}
