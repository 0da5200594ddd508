// Package sim impersonates a simulation-core package to exercise the
// determinism analyzer's concurrency rules.
package sim

import "runtime"

func spawn(done chan int) {
	go func() { done <- 1 }() // want `goroutine launched in sim core` `channel send in sim core`
}

func pump(ch chan int) int {
	ch <- 4     // want `channel send in sim core`
	return <-ch // want `channel receive in sim core`
}

func pick(a, b chan int) int {
	select { // want `select statement in sim core`
	case v := <-a: // want `channel receive in sim core`
		return v
	case v := <-b: // want `channel receive in sim core`
		return v
	}
}

func build() chan int {
	return make(chan int, 8) // want `channel created in sim core`
}

func quit() {
	runtime.Goexit() // want `runtime.Goexit in sim core`
}

func sequential() int {
	// Ordinary sequential code is untouched.
	total := 0
	for i := 0; i < 4; i++ {
		total += i
	}
	return total
}
