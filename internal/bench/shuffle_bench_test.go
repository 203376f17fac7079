package bench

import (
	"testing"

	"datampi/internal/core"
)

// Transport A/B benchmarks: the same shuffle over the in-memory and TCP
// transports, runnable interleaved (-count=N) so machine drift does not
// masquerade as a transport effect the way two separate benchsuite
// processes can.
func BenchmarkShuffleTCP(b *testing.B) {
	const records = 4000
	for _, c := range []struct {
		name string
		tcp  bool
	}{
		{"mem", false},
		{"tcp", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			fn := shuffleJob(records, 0, 0, c.tcp, &res)
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
