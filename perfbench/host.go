package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostPrint identifies where and on what code a result was measured.
// Results are comparable only when every host field agrees: a ratio
// of timings from two machines measures the machines, not the code.
type hostPrint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Revision is the git commit of the checkout, or "none" outside a
	// git work tree; Dirty marks uncommitted changes to tracked files.
	Revision string `json:"revision"`
	Dirty    bool   `json:"dirty"`
	// Source hashes the module's Go sources and go.mod files, so two
	// results name the code they measured even without git.
	Source string `json:"source"`
}

// sameHost reports the first host field on which two prints differ.
func sameHost(a, b hostPrint) (string, bool) {
	switch {
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion), false
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return fmt.Sprintf("platform %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH), false
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS), false
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU), false
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel), false
	}
	return "", true
}

func fingerprint() hostPrint {
	h := hostPrint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   processorName(),
		Revision:   "none",
		Source:     sourceDigest("."),
	}
	// Only a work tree rooted at the checkout names its revision.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Revision = strings.TrimSpace(string(out))
			st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
			h.Dirty = err != nil || len(strings.TrimSpace(string(st))) > 0
		}
	}
	return h
}

// processorName reads the processor name the kernel reports.
func processorName() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories (build output, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unreadable"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
