package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool` driver protocol (the role
// x/tools calls a "unitchecker") from scratch: the go command invokes the
// tool once per package with a JSON config file describing the unit —
// source files, import rewrites, and the export-data file of every
// dependency — and expects diagnostics on stderr plus a non-zero exit when
// any were found. Three sub-protocols matter:
//
//   - `tool -V=full` must print a self-describing version line; the go
//     command uses it as the tool's build-cache key, so it hashes the
//     executable (a rebuilt roxvet invalidates cached vet results, an
//     unchanged one reuses them — this is what keeps the CI lint job fast).
//   - `tool -flags` must describe the tool's public flags as JSON; roxvet
//     has none, so it prints an empty list and the go command passes only
//     the config file.
//   - `tool <unit>.cfg` runs the analysis unit. Units with VetxOnly (pure
//     dependencies, analyzed only for cross-package facts) are satisfied by
//     writing an empty facts file: roxvet's analyzers are all single-package,
//     so dependency units cost one process spawn and no type-checking.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VettoolMain implements the whole vettool protocol for a multichecker
// binary. It returns the process exit code; main wires it straight into
// os.Exit. Non-protocol invocations (no .cfg argument) return -1 so the
// caller can print its usage.
func VettoolMain(args []string, analyzers []*Analyzer, stderr io.Writer) int {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion()
			return 0
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) == 0 || !strings.HasSuffix(args[len(args)-1], ".cfg") {
		return -1
	}
	findings, err := runUnit(args[len(args)-1], analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "roxvet: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(stderr, "%s\n", f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// printVersion emits the version line the go command caches vet results
// under: the tool name plus a content hash of the executable itself.
func printVersion() {
	name := filepath.Base(os.Args[0])
	name = strings.TrimSuffix(name, ".exe")
	sum := [sha256.Size]byte{}
	if data, err := os.ReadFile(os.Args[0]); err == nil {
		sum = sha256.Sum256(data)
	}
	fmt.Printf("%s version devel buildID=%x\n", name, sum[:16])
}

// runUnit executes one vet unit: parse the config, honor VetxOnly, parse and
// type-check the unit's files against its dependencies' export data, and run
// the analyzers.
func runUnit(cfgPath string, analyzers []*Analyzer) ([]Finding, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	// The go command requires the facts file to exist after every run,
	// including failed ones, so write it before doing any real work. roxvet
	// has no cross-package facts; the file is a placeholder.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	imp := newExportImporter(fset, cfg.PackageFile, cfg.ImportMap)
	pkg, err := checkFiles(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	return RunPackage(pkg, analyzers)
}

// exportImporter resolves imports from compiled export-data files, with an
// optional import-path rewrite map (vendoring, test variants). Export-data
// import is how the real toolchain composes: since Go 1.20 there are no
// pre-compiled .a files under GOROOT, so importer.Default() cannot resolve
// even "fmt", and the unit config names an export file for every dependency.
type exportImporter struct {
	gc        types.ImporterFrom
	importMap map[string]string
}

// newExportImporter builds an importer over path -> export-file bindings.
func newExportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) *exportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{
		gc:        importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom),
		importMap: importMap,
	}
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, "", 0)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := ei.importMap[path]; ok {
		path = mapped
	}
	return ei.gc.ImportFrom(path, dir, 0)
}

// parseFiles parses one package's files (absolute paths) with comments.
func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(paths))
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkFiles type-checks one package's parsed files.
func checkFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
