// Package archtest mechanically enforces the repository's two-layer
// architecture: the core layer (the verification pipeline, from BBVL
// loading through exploration and refinement to verdicts) must stay
// free of operating-system facilities so it embeds anywhere and
// compiles for every GOOS/GOARCH pair including js/wasm, while the
// platform layer (spill-to-disk state storage, artifact store, HTTP
// service, commands) keeps full OS access.
//
// The check parses import declarations with go/parser rather than
// loading full package metadata: it needs no build context, runs in
// milliseconds, and — unlike a transitive `go list -deps` walk — only
// flags imports the package author wrote. (Transitive closures would
// condemn fmt, whose implementation imports os for its *os.File
// plumbing; the boundary this package defends is about what our code
// reaches for directly.) Direct imports of repro-internal packages ARE
// walked transitively, so a core package cannot launder an os import
// through another repro package.
package archtest

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// CorePackages lists the core-layer packages, as directories relative
// to the repository root. Everything here must satisfy Forbidden.
var CorePackages = []string{
	"internal/algorithms",
	"internal/api",
	"internal/bbvl",
	"internal/bisim",
	"internal/core",
	"internal/ktrace",
	"internal/ltl",
	"internal/lts",
	"internal/machine",
	"internal/playground",
	"internal/refine",
	"internal/spec",
	"internal/statecodec",
	"internal/vet",
	"examples/bbvl",
}

// forbiddenExact are import paths a core package may never name.
var forbiddenExact = map[string]string{
	"os":                        "operating-system access",
	"syscall":                   "raw system calls",
	"net":                       "network access",
	"repro/internal/statestore": "the platform spill filesystem (take it through statecodec.Backend's Spill seam instead)",
	"repro/internal/artifact":   "the platform artifact store",
	"repro/internal/serve":      "the platform HTTP service",
}

// forbiddenPrefixes extend the exact set to whole subtrees (os/exec,
// net/http, ...). os/signal etc. all start with one of these.
var forbiddenPrefixes = []string{"os/", "syscall/", "net/"}

// Violation is one forbidden import found in a core package.
type Violation struct {
	File   string // path of the importing file, relative to root
	Import string // the forbidden import path
	Why    string // what makes it forbidden
}

func (v Violation) String() string {
	return fmt.Sprintf("%s imports %q (%s)", v.File, v.Import, v.Why)
}

// forbidden classifies one import path.
func forbidden(path string) (string, bool) {
	if why, ok := forbiddenExact[path]; ok {
		return why, ok
	}
	for _, p := range forbiddenPrefixes {
		if strings.HasPrefix(path, p) {
			return "subtree of " + strings.TrimSuffix(p, "/"), true
		}
	}
	return "", false
}

// packageImports parses every non-test Go file of the package directory
// dir (absolute) and returns file → imports. Test files are exempt:
// they never ship in the package and routinely need os.ReadFile for
// fixtures.
func packageImports(dir string) (map[string][]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	out := make(map[string][]string)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		var imps []string
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			imps = append(imps, p)
		}
		out[path] = imps
	}
	return out, nil
}

// Check walks the given core packages under root (directories relative
// to root) and every repro package they transitively reach through
// direct imports, and returns all forbidden imports found, sorted.
// An empty slice means the boundary holds.
func Check(root string, packages []string) ([]Violation, error) {
	var violations []Violation
	seen := make(map[string]bool)
	queue := append([]string(nil), packages...)
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		files, err := packageImports(filepath.Join(root, filepath.FromSlash(pkg)))
		if err != nil {
			return nil, fmt.Errorf("core package %s: %w", pkg, err)
		}
		for path, imps := range files {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				rel = path
			}
			for _, imp := range imps {
				if why, bad := forbidden(imp); bad {
					violations = append(violations, Violation{File: filepath.ToSlash(rel), Import: imp, Why: why})
				}
				// Follow repro-internal edges so the closure of the core
				// layer is checked, not just its named roots.
				if rest, ok := strings.CutPrefix(imp, "repro/"); ok {
					if _, bad := forbidden(imp); !bad {
						queue = append(queue, rest)
					}
				}
			}
		}
	}
	sort.Slice(violations, func(i, j int) bool {
		if violations[i].File != violations[j].File {
			return violations[i].File < violations[j].File
		}
		return violations[i].Import < violations[j].Import
	})
	return violations, nil
}
