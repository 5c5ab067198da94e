package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fepia/internal/spec"
)

func TestStripMeta(t *testing.T) {
	cases := []struct{ in, want string }{
		{"{\n  \"radii\": [\n    1\n  ],\n  \"meta\": {\n    \"cache\": \"hit\"\n  }\n}\n", "{\n  \"radii\": [\n    1\n  ]\n}\n"},
		{`{"step":1,"changed_count":0,"meta":{"cache":"miss"}}` + "\n" + `{"done":true}` + "\n", `{"step":1,"changed_count":0}` + "\n" + `{"done":true}` + "\n"},
		{`{"results":[{"name":"a","meta":{"cache":"miss"}}],"meta":{"cache":"miss"}}`, `{"results":[{"name":"a"}]}`},
		{`{"name":"a"}`, `{"name":"a"}`},
	}
	for _, c := range cases {
		if got := string(stripMeta(nil, []byte(c.in))); got != c.want {
			t.Errorf("stripMeta(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestGateCountsMismatches feeds the gate served-looking answers, one of
// them altered, and expects exactly that one to fail.
func TestGateCountsMismatches(t *testing.T) {
	for _, name := range []string{wlAnalyze, wlWatch} {
		w, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		w.pool = w.pool[:3]
		responses := make([][]byte, len(w.pool))
		for i, body := range w.pool {
			want, err := libraryBytes(context.Background(), w.endpoint, body)
			if err != nil {
				t.Fatal(err)
			}
			responses[i] = withMeta(want)
		}
		radius := []byte(`"radius": `) // indented /v1/analyze answer
		if w.endpoint == "/v1/watch" {
			radius = []byte(`"radius":`)
		}
		responses[1] = bytes.Replace(responses[1], radius, append(radius, '1'), 1)
		b := newBench(w, config{})
		if err := b.gate(context.Background(), responses); err != nil {
			t.Fatal(err)
		}
		if got := b.ops.mismatch.Load(); got != 1 {
			t.Errorf("%s: gate counted %d mismatches, want 1", name, got)
		}
	}
}

// TestCheckWatchFramesCatchesWrongFrames alters one sampled frame of a
// library-path watch stream at a time, after the stream-wide byte
// comparison would have run, and expects the cold-analysis check of
// sampled frames to reject it.
func TestCheckWatchFramesCatchesWrongFrames(t *testing.T) {
	ctx := context.Background()
	w, err := newWorkload(wlWatch, 7)
	if err != nil {
		t.Fatal(err)
	}
	const session = 0
	body := w.pool[session]
	stream, err := libraryBytes(ctx, w.endpoint, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWatchFrames(ctx, session, body, stream); err != nil {
		t.Fatalf("unaltered stream: %v", err)
	}
	lines := bytes.SplitAfter(stream, []byte("\n"))
	// alter rewrites the first sampled frame that edit accepts and
	// returns the stream, or nil if no sampled frame qualifies.
	alter := func(edit func(fr *spec.WatchFrame) bool) []byte {
		for i, l := range lines {
			var fr spec.WatchFrame
			if err := json.Unmarshal(l, &fr); err != nil {
				t.Fatal(err)
			}
			if fr.Step == 0 || (fr.Step+session)%watchSampleEvery != 0 || !edit(&fr) {
				continue
			}
			b, err := json.Marshal(fr)
			if err != nil {
				t.Fatal(err)
			}
			out := bytes.Join(lines[:i], nil)
			out = append(append(out, b...), '\n')
			return append(out, bytes.Join(lines[i+1:], nil)...)
		}
		return nil
	}
	cases := map[string]func(fr *spec.WatchFrame) bool{
		"robustness": func(fr *spec.WatchFrame) bool { fr.Robustness *= 1.5; return true },
		"critical feature": func(fr *spec.WatchFrame) bool {
			fr.Critical += "x"
			return true
		},
		"changed radius": func(fr *spec.WatchFrame) bool {
			if len(fr.Changed) == 0 {
				return false
			}
			fr.Changed[0].Radius *= 1.5
			return true
		},
	}
	for name, edit := range cases {
		bad := alter(edit)
		if bad == nil {
			t.Fatalf("%s: no sampled frame to alter", name)
		}
		if err := checkWatchFrames(ctx, session, body, bad); err == nil {
			t.Errorf("%s: altered sampled frame passed the check", name)
		}
	}
}

// withMeta adds the meta members fepiad serves: after the last member of
// an indented document, or of every frame but the summary of a stream.
func withMeta(b []byte) []byte {
	if bytes.HasPrefix(b, []byte("{\n")) {
		return append(bytes.TrimSuffix(b, []byte("\n}\n")), ",\n  \"meta\": {\n    \"cache\": \"hit\"\n  }\n}\n"...)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	var out []byte
	for i, l := range lines {
		if i < len(lines)-2 { // the last element is empty, the one before it the summary
			l = append(bytes.TrimSuffix(l, []byte("}\n")), `,"meta":{"cache":"miss"}}`+"\n"...)
		}
		out = append(out, l...)
	}
	return out
}
