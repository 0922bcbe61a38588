package publishing_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// detOK is the annotation that admits a range over a map: the line of the
// range, or the line above it, carries "//det:ok <reason>".
const detOK = "//det:ok"

// TestMapRangesAreAnnotated: Go randomizes map iteration order, so a range
// over a map whose order reaches a frame, a trace line, a store record or a
// metric breaks same-seed byte-identity (the golden table and the census),
// and does so only now and then. Every range over a map in the module's
// non-test code says why its order cannot matter, or that its keys are
// sorted before use, in a det:ok annotation; an unannotated one fails here.
//
// The check type-checks every package of the module with go/types against
// the export data `go list -export` builds, so it sees a map behind any
// named type or expression, not only a literal map[...] in the source.
func TestMapRangesAreAnnotated(t *testing.T) {
	for _, pos := range unannotatedMapRanges(t) {
		t.Errorf("%s: range over a map without a %s <reason> annotation", pos, detOK)
	}
}

// listedPkg is what unannotatedMapRanges reads of one `go list -json` record.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool // a dependency ./... does not match, such as the standard library
}

// unannotatedMapRanges lists the position of every range over a map in the
// module's non-test Go files that has no det:ok annotation.
func unannotatedMapRanges(t *testing.T) []string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build export data: %v", err)
	}
	cmd := exec.Command(gobin, "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	var mine []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			mine = append(mine, p)
		}
	}
	if len(mine) == 0 {
		t.Fatal("go list found no packages in the module")
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, p := range mine {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			annotated := make(map[int]bool) // lines carrying det:ok
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					reason, ok := strings.CutPrefix(c.Text, detOK+" ")
					if ok && strings.TrimSpace(reason) != "" {
						annotated[fset.Position(c.Slash).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				pos := fset.Position(rs.For)
				if annotated[pos.Line] || annotated[pos.Line-1] {
					return true
				}
				name := pos.Filename
				if rel, err := filepath.Rel(root, name); err == nil {
					name = rel
				}
				bad = append(bad, fmt.Sprintf("%s:%d", name, pos.Line))
				return true
			})
		}
	}
	return bad
}
