// Command doclint enforces the repo's documentation bar in CI, stdlib
// only (no external linters):
//
//  1. Every package in the tree — the root, internal/*, cmd/*, examples/*
//     — must carry a package-level doc comment on at least one file.
//  2. In the designated public-API packages, every exported top-level
//     identifier (functions, methods on exported receivers, types, and
//     const/var declarations) must carry a doc comment; for grouped
//     const/var declarations a comment on the block suffices.
//
// Usage:
//
//	doclint [-exported dir1,dir2,...] [root]
//
// root defaults to the current directory; -exported defaults to the
// packages whose surface other code programs against: the dust root, the
// embeddable serving layer, the metrics registry, and internal/search — the
// one searcher contract and its implementation. Findings print one
// per line as path:line: message, and any finding exits 1 — wired as a CI
// step so documentation regressions fail the build.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	exported := flag.String("exported",
		".,internal/obs,internal/search,internal/serve",
		"comma-separated package dirs (relative to root) whose exported symbols must all be documented")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}

	exportedDirs := map[string]bool{}
	for _, d := range strings.Split(*exported, ",") {
		if d = strings.TrimSpace(d); d != "" {
			exportedDirs[filepath.Clean(d)] = true
		}
	}

	files, err := goFiles(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}

	var findings []string
	fset := token.NewFileSet()
	byDir := map[string][]*ast.File{}
	dirHasPkgDoc := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.Clean(rel)
		byDir[rel] = append(byDir[rel], f)
		if f.Doc != nil {
			dirHasPkgDoc[rel] = true
		}
	}

	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !dirHasPkgDoc[dir] {
			findings = append(findings,
				fmt.Sprintf("%s: package %s has no package doc comment on any file",
					dir, byDir[dir][0].Name.Name))
		}
		if !exportedDirs[dir] {
			continue
		}
		for _, f := range byDir[dir] {
			findings = append(findings, lintExported(fset, f)...)
		}
	}

	if len(findings) > 0 {
		for _, m := range findings {
			fmt.Println(m)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("doclint: %d packages clean (%d with full exported-symbol coverage)\n",
		len(byDir), len(exportedDirs))
}

// goFiles collects every non-test .go file under root, skipping hidden
// directories and testdata.
func goFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// lintExported reports every exported top-level identifier in f that has
// no doc comment.
func lintExported(fset *token.FileSet, f *ast.File) []string {
	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				recv := receiverName(d.Recv)
				if !ast.IsExported(recv) {
					continue
				}
				report(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
				continue
			}
			report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
		case *ast.GenDecl:
			blockDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !blockDoc && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					if blockDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), "exported %s %s has no doc comment",
								strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return findings
}

// receiverName extracts the receiver's type name, unwrapping pointers and
// type parameters.
func receiverName(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
