package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fepia/internal/spec"
)

// encoderBytes re-encodes a served document the way json.Encoder does,
// the reference layout of every /v1 response.
func encoderBytes(t *testing.T, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServedBytesMatchEncoder: the analyze document and every watch line
// leave the server exactly as json.Encoder would write them — indented
// for /v1/analyze, compact NDJSON for /v1/watch.
func TestServedBytesMatchEncoder(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{NodeID: "n<1>"})).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ { // cold, then warm
		resp, body := postJSON(t, ts.URL+"/v1/analyze", string(wideDoc(7)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var res spec.ResultJSON
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if want := encoderBytes(t, res, true); !bytes.Equal(body, want) {
			t.Fatalf("analyze body differs from json.Encoder:\n got %.300s\nwant %.300s", body, want)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/watch", watchBody(t, [][]float64{{6, 4, 8}, {6, 4.5, 8}, {7, 4.5, 8}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d: %s", resp.StatusCode, body)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the final newline
	if len(lines) != 4 {
		t.Fatalf("watch stream has %d lines, want 3 frames and a summary:\n%s", len(lines), body)
	}
	for i, line := range lines {
		var v any
		if i < 3 {
			var f spec.WatchFrame
			if err := json.Unmarshal(line, &f); err != nil {
				t.Fatal(err)
			}
			v = f
		} else {
			var s spec.WatchSummary
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatal(err)
			}
			v = s
		}
		if want := encoderBytes(t, v, false); !bytes.Equal(line, want) {
			t.Errorf("watch line %d differs from json.Encoder:\n got %s\nwant %s", i, line, want)
		}
	}
}

// TestWriteJSONEncodeFailure: a document that cannot be encoded — here a
// NaN boundary coordinate — answers 500 internal instead of committing
// an empty 200. The engine finitises or rejects non-finite values before
// they reach the encoder, so this guards the writer itself.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, spec.ResultJSON{
		Perturbation: "π",
		Robustness:   1,
		Radii:        []spec.RadiusJSON{{Feature: "f", Radius: 1, Kind: "max", Boundary: []float64{1, math.NaN()}}},
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Kind != "internal" || !strings.Contains(e.Error, "NaN") {
		t.Fatalf("error envelope %+v, want kind internal naming the NaN", e)
	}
}

// TestBodyDeclaredTooLarge: a Content-Length beyond MaxBodyBytes still
// answers 413 invalid_spec; the read buffer is sized to the cap, not to
// the declared length.
func TestBodyDeclaredTooLarge(t *testing.T) {
	h := New(quietConfig(Config{MaxBodyBytes: 64})).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(webFarm))
	req.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Kind != "invalid_spec" {
		t.Fatalf("error kind %q, want invalid_spec", e.Kind)
	}
}

// TestChunkedBody: a body of unknown length (chunked transfer, no
// Content-Length) is read in full and served like any other.
func TestChunkedBody(t *testing.T) {
	srv := New(quietConfig(Config{}))
	lengths := make(chan int64, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lengths <- r.ContentLength
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	doc := wideDoc(3)
	// io.MultiReader hides the length, so the client sends chunks.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", io.MultiReader(bytes.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-lengths; n != -1 {
		t.Fatalf("server saw Content-Length %d, want -1 (chunked)", n)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var served spec.ResultJSON
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if want := libraryResult(t, string(doc)); len(served.Radii) != len(want.Radii) || served.Robustness != want.Robustness {
		t.Fatalf("chunked analyze: %d radii ρ=%v, want %d radii ρ=%v",
			len(served.Radii), served.Robustness, len(want.Radii), want.Robustness)
	}
}
