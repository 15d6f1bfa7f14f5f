package blocked

import (
	"fmt"
	"testing"

	"perfilter/internal/rng"
	"perfilter/internal/simd"
)

// TestPipelinedKernelsMatchGeneric pins the pipelined kernels to the
// generic bit-walk kernel at batch lengths straddling every pipeline
// boundary (empty, sub-depth, exact multiples, off-by-one around them),
// so a depth change can never silently break the remainder loop or the
// group-ahead mask precompute. Each configuration also pins the kernel
// ContainsBatch dispatches to: the default geometry must reach
// the specialised kernel, so the fast path cannot silently fall back, and
// the non-default cache-sectorized geometries keep the general kernel
// covered.
func TestPipelinedKernelsMatchGeneric(t *testing.T) {
	// The default (magic addressing) and its power-of-two twin.
	pow2Default := DefaultParams()
	pow2Default.Magic = false
	configs := []struct {
		name   string
		p      Params
		unroll int
		kernel kernelID
	}{
		{"register", RegisterBlockedParams(64, 8, false), registerUnroll, kernelRegister},
		{"register-magic", RegisterBlockedParams(32, 4, true), registerUnroll, kernelRegister},
		{"cachesec", pow2Default, cacheUnroll, kernelCacheSectorizedZ2K8},
		{"cachesec-magic", DefaultParams(), cacheUnroll, kernelCacheSectorizedZ2K8},
		{"cachesec-B256", CacheSectorizedParams(64, 256, 2, 8, false), cacheUnroll, kernelCacheSectorizedZ2K8},
		{"cachesec-z4", CacheSectorizedParams(64, 512, 4, 8, false), cacheUnroll, kernelCacheSectorized},
		{"cachesec-k12", CacheSectorizedParams(64, 512, 2, 12, true), cacheUnroll, kernelCacheSectorized},
		{"cachesec-W32-magic", CacheSectorizedParams(32, 512, 2, 8, true), cacheUnroll, kernelCacheSectorized},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			if cfg.unroll < simd.Width {
				t.Fatalf("pipeline depth %d below simd.Width=%d", cfg.unroll, simd.Width)
			}
			// About 8 bits per inserted key: dense enough that absent
			// keys also hit, so a wrong mask or word test shows.
			pr, err := New(cfg.p, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			switch f := pr.(type) {
			case *Filter[uint32]:
				checkGenericParity(t, f, cfg.unroll, cfg.kernel)
			case *Filter[uint64]:
				checkGenericParity(t, f, cfg.unroll, cfg.kernel)
			default:
				t.Fatalf("unexpected probe type %T", pr)
			}
		})
	}
}

func checkGenericParity[W Word](t *testing.T, f *Filter[W], u int, kernel kernelID) {
	t.Helper()
	if f.kernel != kernel {
		t.Fatalf("%v dispatches to kernel %d, want %d", f.params, f.kernel, kernel)
	}
	r := rng.NewMT19937(11)
	inserted := make([]uint32, 2000)
	for i := range inserted {
		inserted[i] = r.Uint32()
		f.Insert(inserted[i])
	}
	lens := []int{0, 1, u - 1, u, u + 1, 2*u - 1, 2 * u, 2*u + 1, 3*u + 3, 1024}
	for _, n := range lens {
		// Every even position probes an inserted key, so at least half
		// the batch is present and both answers are exercised.
		keys := make([]uint32, n)
		for i := range keys {
			if i%2 == 0 {
				keys[i] = inserted[r.Uint32()%uint32(len(inserted))]
			} else {
				keys[i] = r.Uint32()
			}
		}
		got := f.ContainsBatch(keys, nil)
		wantBuf := make([]uint32, n)
		wantCnt := f.batchGeneric(keys, wantBuf, 0)
		want := wantBuf[:wantCnt]
		if len(got) != len(want) {
			t.Fatalf("n=%d: pipelined %d hits, generic %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d: pipelined %d, generic %d", n, i, got[i], want[i])
			}
		}
		if present := (n + 1) / 2; len(got) < present {
			t.Fatalf("n=%d: %d hits, fewer than the %d present keys", n, len(got), present)
		}
	}
}

// BenchmarkPipelineDepth probes the two pipelined kernels at an
// L1-resident and two cache-missing filter sizes — the measurement behind
// the registerUnroll/cacheUnroll depth constants in kernels.go. Each
// iteration probes the next 1024 of 2^22 random keys, so at the larger
// sizes the probed lines are not left in cache by earlier iterations.
func BenchmarkPipelineDepth(b *testing.B) {
	const batch = 1024
	configs := []struct {
		name string
		p    Params
	}{
		{"register", RegisterBlockedParams(64, 8, false)},
		{"cachesec", DefaultParams()},
	}
	r := rng.NewMT19937(1)
	probe := make([]uint32, 1<<22)
	for i := range probe {
		probe[i] = r.Uint32()
	}
	for _, size := range []uint64{1 << 17, 1 << 26, 1 << 29} {
		for _, cfg := range configs {
			b.Run(fmt.Sprintf("%s/bits=2^%d", cfg.name, log2u64(size)), func(b *testing.B) {
				f, err := New(cfg.p, size)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 1<<13; i++ {
					f.Insert(r.Uint32())
				}
				sel := make([]uint32, 0, batch)
				b.SetBytes(batch * 4)
				b.ResetTimer()
				off := 0
				for i := 0; i < b.N; i++ {
					sel = f.ContainsBatch(probe[off:off+batch], sel[:0])
					off = (off + batch) % len(probe)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
			})
		}
	}
}

// BenchmarkInsertBatch compares scalar Insert with the pipelined
// InsertBatch kernel on a 512 MiB default-geometry filter — above the
// last-level cache, like the loadbench probe-large preload — in 1024-key
// batches. Keys cycle through 2^22 random values, which touch far more
// cache lines than any LLC holds, and one untimed pass over them faults
// the filter's pages in before either side is timed.
func BenchmarkInsertBatch(b *testing.B) {
	const batch = 1024
	f, err := New(DefaultParams(), 1<<32)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewMT19937(1)
	keys := make([]uint32, 1<<22)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	f.InsertBatch(keys)
	for _, scalar := range []bool{true, false} {
		name := "batch"
		if scalar {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			off := 0
			for i := 0; i < b.N; i++ {
				run := keys[off : off+batch]
				off = (off + batch) % len(keys)
				if scalar {
					for _, k := range run {
						f.Insert(k)
					}
				} else {
					f.InsertBatch(run)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
		})
	}
}

func log2u64(x uint64) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}
