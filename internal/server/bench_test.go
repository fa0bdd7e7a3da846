package server

import (
	"encoding/json"
	"strings"
	"testing"

	racetrack "repro"
	"repro/rtmclient"
)

// BenchmarkDecodePlaceRequest decodes request bodies shaped like the
// serve workload's: every OffsetStone sequence as a trace, the three
// DMA strategies in turn, 4 DBCs, priced for energy.
func BenchmarkDecodePlaceRequest(b *testing.B) {
	strategies := []racetrack.Strategy{racetrack.DMAOFU, racetrack.DMASR, racetrack.DMA2Opt}
	var bodies [][]byte
	size := 0
	for _, name := range racetrack.BenchmarkNames() {
		bm, err := racetrack.GenerateBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range bm.Sequences {
			var sb strings.Builder
			for i, a := range s.Accesses {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(s.Name(a.Var))
				if a.Write {
					sb.WriteByte('!')
				}
			}
			st := strategies[len(bodies)%len(strategies)]
			body, err := json.Marshal(rtmclient.PlaceRequest{Trace: sb.String(), Strategy: string(st), DBCs: 4, Objective: "energy"})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
			size += len(body)
		}
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			req, err := decodePlaceRequest(body)
			if err != nil {
				b.Fatal(err)
			}
			requestSink = req
		}
	}
}

var requestSink *placeRequest
