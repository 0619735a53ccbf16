// Command dpbench-lint runs the dpbench static-analysis suite: the seven
// analyzers under internal/analysis that enforce the privacy-budget and
// determinism invariants at compile time (see internal/analysis/doc.go).
//
// Two modes:
//
//	dpbench-lint [packages]       standalone; defaults to ./...
//	go vet -vettool=$(which dpbench-lint) ./...
//
// The second form speaks the go vet driver protocol (-V=full, -flags, and a
// single *.cfg argument per package), which lets the go command schedule the
// analyzers per package with caching. Exit status: 0 clean, 1 operational
// error, 2 findings.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dpbench/internal/analysis"
	"dpbench/internal/analysis/allocfree"
	"dpbench/internal/analysis/determinism"
	"dpbench/internal/analysis/driver"
	"dpbench/internal/analysis/epsflow"
	"dpbench/internal/analysis/internalboundary"
	"dpbench/internal/analysis/load"
	"dpbench/internal/analysis/noisegate"
	"dpbench/internal/analysis/privtaint"
	"dpbench/internal/analysis/subclose"
)

var analyzers = []*analysis.Analyzer{
	noisegate.Analyzer,
	subclose.Analyzer,
	determinism.Analyzer,
	internalboundary.Analyzer,
	privtaint.Analyzer,
	allocfree.Analyzer,
	epsflow.Analyzer,
}

func main() {
	versionFlag := flag.String("V", "", "print version and exit (go vet protocol)")
	flagsFlag := flag.Bool("flags", false, "print tool flags as JSON and exit (go vet protocol)")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
		return
	case *flagsFlag:
		// No tool-specific flags; go vet wants a JSON array either way.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}
	os.Exit(standalone(args))
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: dpbench-lint [packages]
       go vet -vettool=$(which dpbench-lint) [packages]

Runs the dpbench invariant analyzers:
`)
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-17s %s\n", a.Name, a.Doc)
	}
}

// printVersion implements the -V=full handshake: the go command keys its vet
// result cache on this line, so it must change whenever the binary does —
// hashing the executable guarantees that.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		_, _ = io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil))
}

// standalone loads the given patterns (default ./...) with go list and runs
// every analyzer over every module package.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrs {
			fmt.Fprintf(os.Stderr, "%s: %v\n", pkg.Meta.ImportPath, terr)
			exit = 1
		}
		if len(pkg.TypeErrs) > 0 {
			continue
		}
		findings, err := driver.Analyze(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			if exit == 0 {
				exit = 2
			}
		}
	}
	return exit
}

// vetConfig is the JSON the go command writes per package when invoking a
// -vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one package described by a go vet .cfg file.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dpbench-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// These analyzers exchange no facts, but the go command still expects the
	// output file to exist before it will cache the result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// The invariants these analyzers enforce are about shipped code; tests
	// legitimately reach into internals and draw raw randomness, so test
	// package variants (any unit containing a _test.go file) are skipped —
	// matching standalone mode, where go list never surfaces test files.
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, "_test.go") {
			return 0
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("dpbench-lint: no export data for %q in vet config", path)
		}
		return os.Open(file)
	}
	pkg, err := load.LoadFilesLookup(lookup, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(pkg.TypeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, terr := range pkg.TypeErrs {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cfg.ImportPath, terr)
		}
		return 1
	}
	findings, err := driver.Analyze(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
