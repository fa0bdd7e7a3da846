package trace_test

import (
	"strings"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/trace"
)

// BenchmarkParseSuite decodes the 31 OffsetStone benchmarks as the text
// files rtmplace and the files workload read: 205 sequences averaging
// ~440 accesses over ~115 names, a new name every few accesses. That
// churn is what BenchmarkParseText's one 50,000-access sequence over
// 200 names lacks, so the two gate different costs of the parser.
func BenchmarkParseSuite(b *testing.B) {
	names := offsetstone.Names()
	texts := make([]string, len(names))
	size := 0
	for i, name := range names {
		bm, err := offsetstone.Generate(name)
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := trace.Write(&sb, bm); err != nil {
			b.Fatal(err)
		}
		texts[i] = sb.String()
		size += len(texts[i])
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, text := range texts {
			bm, err := trace.Parse(names[j], strings.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			suiteSink = bm
		}
	}
}

var suiteSink *trace.Benchmark
