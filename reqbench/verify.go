package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"fepia/internal/batch"
	"fepia/internal/spec"
)

// libraryBytes is the reference answer for one request body, computed
// in-process on the library path with a fresh radius cache and encoded
// exactly as fepiad encodes it, without any meta block.
func libraryBytes(ctx context.Context, endpoint string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	switch endpoint {
	case "/v1/analyze":
		sys, err := spec.Parse(body)
		if err != nil {
			return nil, err
		}
		res, err := coldResult(ctx, sys)
		if err != nil {
			return nil, err
		}
		return indentJSON(&buf, res)
	case "/v1/batch":
		systems, err := spec.ParseBatch(body)
		if err != nil {
			return nil, err
		}
		var resp spec.BatchResponse
		for _, sys := range systems {
			res, err := coldResult(ctx, sys)
			if err != nil {
				return nil, err
			}
			resp.Results = append(resp.Results, res)
		}
		return indentJSON(&buf, resp)
	case "/v1/watch":
		req, sys, err := parseWatch(body)
		if err != nil {
			return nil, err
		}
		w, err := batch.NewWatcher(batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
			batch.Options{Cache: batch.NewCache(0), Core: sys.Options})
		if err != nil {
			return nil, err
		}
		enc := json.NewEncoder(&buf)
		total := 0
		for _, pt := range req.Points {
			st, err := w.Step(ctx, pt)
			if err != nil {
				return nil, err
			}
			total += len(st.Changed)
			if err := enc.Encode(spec.EncodeWatchFrame(st.Step, pt, st.Analysis, st.Changed)); err != nil {
				return nil, err
			}
		}
		if err := enc.Encode(spec.WatchSummary{Done: true, Steps: len(req.Points), TotalChanged: total}); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("no library path for %s", endpoint)
}

// coldResult analyses one system on a fresh cache and encodes it.
func coldResult(ctx context.Context, sys *spec.System) (spec.ResultJSON, error) {
	a, err := batch.AnalyzeOneContext(ctx, batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
		batch.Options{Cache: batch.NewCache(0), Core: sys.Options})
	if err != nil {
		return spec.ResultJSON{}, err
	}
	return spec.Encode(sys.Name, a), nil
}

// indentJSON encodes v as fepiad's writeJSON does.
func indentJSON(buf *bytes.Buffer, v any) ([]byte, error) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseWatch decodes a watch body as fepiad does.
func parseWatch(body []byte) (spec.WatchRequest, *spec.System, error) {
	var req spec.WatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, err
	}
	sys, err := spec.Build(req.System)
	return req, sys, err
}

// stripMeta appends b to dst with every "meta" member removed, together
// with the comma that separated it from the previous member, in both
// indented and compact JSON. Meta blocks hold only scalars, so the
// member ends at the first closing brace. The generated feature and
// system names never contain the key.
func stripMeta(dst, b []byte) []byte {
	key := []byte(`"meta":`)
	for {
		i := bytes.Index(b, key)
		if i < 0 {
			return append(dst, b...)
		}
		end := bytes.IndexByte(b[i:], '}')
		comma := bytes.LastIndexByte(b[:i], ',')
		if end < 0 || comma < 0 || len(bytes.TrimSpace(b[comma+1:i])) != 0 {
			return append(dst, b...) // not a member we wrote; compare as is
		}
		dst = append(dst, b[:comma]...)
		b = b[i+end+1:]
	}
}

// cleanSummary reports whether a watch stream ends with a summary frame
// that carries no error.
func cleanSummary(stream []byte) bool {
	stream = bytes.TrimRight(stream, "\n")
	last := stream[bytes.LastIndexByte(stream, '\n')+1:]
	var s spec.WatchSummary
	return json.Unmarshal(last, &s) == nil && s.Done && s.Error == ""
}

// watchSampleEvery picks the watch frames checked against a cold
// analysis: step s of session i is sampled when (s+i) is a multiple of
// it, four frames per 64-step session.
const watchSampleEvery = 16

// checkWatchFrames replays a served watch stream client-side, overlaying
// each frame's changed radii onto the running radius set, and checks
// the sampled frames against a cold library analysis at their point: ρ,
// the critical feature, and every overlaid radius value and bound must
// match, and the radii the frame carries must match byte for byte,
// boundary witness included. (A frame does not re-send radii whose value
// held still, so their overlaid witnesses may lag the moving point.)
func checkWatchFrames(ctx context.Context, session int, body, stream []byte) error {
	req, sys, err := parseWatch(body)
	if err != nil {
		return err
	}
	names := make(map[string]int, len(sys.Features))
	for i, f := range sys.Features {
		names[f.Name] = i
	}
	state := make([]spec.RadiusJSON, len(sys.Features))
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	for sc.Scan() {
		var fr spec.WatchFrame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return fmt.Errorf("watch frame: %w", err)
		}
		if fr.Step == 0 {
			continue // the summary
		}
		for _, r := range fr.Changed {
			i, ok := names[r.Feature]
			if !ok {
				return fmt.Errorf("step %d: unknown feature %q", fr.Step, r.Feature)
			}
			state[i] = r
		}
		if (fr.Step+session)%watchSampleEvery != 0 {
			continue
		}
		at := *sys
		at.Perturbation.Orig = req.Points[fr.Step-1]
		cold, err := coldResult(ctx, &at)
		if err != nil {
			return err
		}
		bad := fr.Robustness != cold.Robustness || fr.Critical != cold.Critical
		for i, r := range state {
			c := cold.Radii[i]
			bad = bad || r.Feature != c.Feature || r.Radius != c.Radius || r.Kind != c.Kind
		}
		for _, r := range fr.Changed {
			got, err1 := json.Marshal(r)
			want, err2 := json.Marshal(cold.Radii[names[r.Feature]])
			if err := errors.Join(err1, err2); err != nil {
				return err
			}
			bad = bad || !bytes.Equal(got, want)
		}
		if bad {
			return fmt.Errorf("session %d step %d differs from a cold analysis at its point", session, fr.Step)
		}
	}
	return sc.Err()
}
