package ccsvm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocLint fails when an exported symbol in the public facade (the root
// package), in internal/workloads — the two packages contributors extend
// when adding workloads, presets, or overrides — in the lint suite
// (internal/lint and its subpackages, whose exported Analyzers and helpers
// are the contributor-facing surface of the static-enforcement layer), or in
// the serving layer (internal/resultcache and internal/sweepd, whose wire
// and cache formats are operator-facing contracts) lacks a doc comment. CI
// runs it as a dedicated step so documentation debt fails the build, not
// just review.
func TestDocLint(t *testing.T) {
	for _, dir := range []string{
		".",
		"internal/workloads",
		"internal/lint",
		"internal/lint/analysis",
		"internal/lint/cfg",
		"internal/lint/dataflow",
		"internal/lint/load",
		"internal/lint/linttest",
		"internal/resultcache",
		"internal/sweepd",
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				lintFile(t, fset, path, file)
			}
		}
	}
}

func lintFile(t *testing.T, fset *token.FileSet, path string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, kind, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s.Pos(), "value", name.Name)
						}
					}
				}
			}
		}
	}
}

// mdName matches a Markdown file name, with any directory part, in comment
// text.
var mdName = regexp.MustCompile(`[\w./:-]+\.md\b`)

// TestDocLintMarkdownRefs fails when a comment in a Go file of the root
// module names a *.md file that the repository does not have, so a comment
// cannot send a reader to a document that was never written or has since
// been deleted. A name resolves against the repository root or the file's
// own directory. Nested modules (perfbench) keep their own documents and are
// skipped, as are URLs.
func TestDocLintMarkdownRefs(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, name := range mdName.FindAllString(group.Text(), -1) {
				if strings.Contains(name, "://") {
					continue
				}
				if exists(name) || exists(filepath.Join(filepath.Dir(path), name)) {
					continue
				}
				t.Errorf("%s: comment names %s, which is not in the repository", fset.Position(group.Pos()), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exists reports whether path names a file.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
