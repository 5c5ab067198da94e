package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func runReport(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

var (
	quickOnce   sync.Once
	quickOutput string
	quickErr    error
)

// quickReport is the full -quick report at one worker, computed once.
func quickReport(t *testing.T) string {
	t.Helper()
	quickOnce.Do(func() {
		var out bytes.Buffer
		quickErr = run([]string{"-quick", "-workers", "1"}, &out)
		quickOutput = out.String()
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickOutput
}

func header(title string) string {
	return "\n" + title + "\n" + strings.Repeat("-", len(title)) + "\n\n"
}

func TestOnlyMatchesFullReport(t *testing.T) {
	full := quickReport(t)
	for i, s := range sections {
		t.Run(s.name, func(t *testing.T) {
			start := strings.Index(full, header(s.title))
			if start < 0 {
				t.Fatalf("full report has no %q section", s.title)
			}
			body := full[start+len(header(s.title)):]
			if i+1 < len(sections) {
				end := strings.Index(body, header(sections[i+1].title))
				if end < 0 {
					t.Fatalf("full report has no %q section", sections[i+1].title)
				}
				body = body[:end]
			}
			if got := runReport(t, "-quick", "-only", s.name); got != body {
				t.Errorf("-only %s differs from its full-report section\n got: %q\nwant: %q", s.name, got, body)
			}
		})
	}
}

func TestWorkersDoNotChangeOutput(t *testing.T) {
	if got := runReport(t, "-quick", "-workers", "4"); got != quickReport(t) {
		t.Error("-workers 4 output differs from -workers 1")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	n := 0
	for _, s := range sections {
		if !s.csv {
			continue
		}
		n++
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join(dir, s.name+".csv")
			stdout := runReport(t, "-quick", "-only", s.name, "-csv", path)
			if !strings.HasSuffix(stdout, "\nCSV written to "+path+"\n") {
				t.Errorf("stdout does not end with the CSV line: %q", stdout)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 || !strings.Contains(string(data), ",") {
				t.Errorf("CSV is empty or not comma-separated: %q", data)
			}
		})
	}
	if n != 9 {
		t.Errorf("%d sections have CSV output, want 9", n)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"unknown only", []string{"-only", "figure5"}, []string{`"figure5"`, "figure1", "table2", "consistency"}},
		{"csv without only", []string{"-csv", "CSV"}, []string{"-csv requires -only"}},
		{"csv with figure2", []string{"-only", "figure2", "-csv", "CSV"}, []string{"figure2 has no CSV"}},
		{"csv with table2", []string{"-only", "table2", "-csv", "CSV"}, []string{"table2 has no CSV"}},
		{"bad flag value", []string{"-workers", "abc"}, []string{"invalid flags"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			outPath, csvPath := filepath.Join(dir, "out.txt"), filepath.Join(dir, "out.csv")
			args := []string{"-quick", "-out", outPath}
			for _, a := range tc.args {
				if a == "CSV" {
					a = csvPath
				}
				args = append(args, a)
			}
			var stdout bytes.Buffer
			err := run(args, &stdout)
			if err == nil {
				t.Fatalf("run %q succeeded, want a usage error", args)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			// -out is created before the first section runs, so its
			// absence shows no experiment ran.
			for _, p := range []string{outPath, csvPath} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("%s exists after a usage error (stat: %v)", filepath.Base(p), err)
				}
			}
		})
	}
}

func TestOutWriteErrorIsReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available:", err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-quick", "-only", "figure1", "-out", "/dev/full"}, &stdout); err == nil {
		t.Fatal("writing the report to /dev/full succeeded, want an error")
	}
	if strings.Contains(stdout.String(), "report written") {
		t.Errorf("success line printed after a failed write: %q", stdout.String())
	}
}
