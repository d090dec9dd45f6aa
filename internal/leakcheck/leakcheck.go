// Package leakcheck fails a test binary whose goroutines outlive its
// tests. Simulated systems own one goroutine per task coroutine until
// Shutdown stops it, so a run that skips Shutdown shows up here as a
// goroutine count that never returns to its baseline.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// Main runs the package's tests, then waits up to five seconds for the
// goroutine count to return to its value before the tests ran. If it
// does not, Main writes a goroutine dump to stderr and returns a failing
// exit code. Use it as the whole TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
func Main(m *testing.M) int {
	before := Count()
	code := m.Run()
	if now, ok := Settle(before, 5*time.Second); !ok {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after\n", before, now)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// Settle polls until Count is at most baseline or the timeout expires.
// It returns the last count and whether it settled.
func Settle(baseline int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for Count() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	now := Count()
	return now, now <= baseline
}

// Count returns the number of goroutines, leaving out the os/signal
// delivery loop. That loop starts on the first signal.Notify — the
// fuzzing engine calls it to catch interrupts — and runs until the
// process exits, so it is never a leak.
func Count() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if len(g) > 0 && !bytes.Contains(g, []byte("os/signal.loop")) {
			count++
		}
	}
	return count
}
