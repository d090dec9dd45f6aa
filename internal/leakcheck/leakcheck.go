// Package leakcheck fails a test binary whose goroutines outlive its
// tests. Simulated systems own one goroutine per task coroutine until
// Shutdown stops it, so a run that skips Shutdown shows up here as a
// goroutine count that never returns to its baseline.
package leakcheck

import (
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
	before := runtime.NumGoroutine()
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

// Settle polls until at most baseline goroutines are running or the
// timeout expires. It returns the last count and whether it settled.
func Settle(baseline int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	now := runtime.NumGoroutine()
	return now, now <= baseline
}
