package main

import (
	"bytes"
	"strings"
	"testing"
)

func fileWith(goodput []float64, rtt float64, missing int64) resultFile {
	r := &workloadResult{Name: "http-mtu", Digest: "d", Metrics: map[string]measurement{}}
	r.Metrics["goodput_mbps"] = measurement{Value: median(goodput), Unit: "Mbit/s", Slices: goodput}
	r.Metrics["rtt_p50_us"] = measurement{Value: rtt, Unit: "us", Slices: []float64{rtt, rtt, rtt}}
	r.Tally = tally{Attempted: 1000, Missing: missing}
	return resultFile{Workloads: []*workloadResult{r}}
}

func TestCompare(t *testing.T) {
	base := fileWith([]float64{500, 505, 495}, 100, 0)
	cases := []struct {
		name string
		b    resultFile
		code int
		want string
	}{
		{"same", fileWith([]float64{498, 500, 502}, 101, 0), 0, "ok"},
		{"slower", fileWith([]float64{300, 301, 299}, 100, 0), 1, "BREACH"},
		{"latency", fileWith([]float64{500, 505, 495}, 140, 0), 1, "BREACH"},
		{"noisy", fileWith([]float64{300, 200, 450}, 100, 0), 0, "unresolved"},
		{"failures", fileWith([]float64{500, 505, 495}, 100, 3), 1, "BREACH"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareResults(&out, base, c.b); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}
	other := fileWith([]float64{500, 505, 495}, 100, 0)
	other.Workloads[0].Digest = "e"
	var out bytes.Buffer
	if compareResults(&out, base, other) == 0 || !strings.Contains(out.String(), "not comparable") {
		t.Errorf("different inputs compared:\n%s", out.String())
	}
}
