// Command netibis-doccheck validates the repository's markdown
// documentation: every intra-repository link — `[text](path)` links and
// bare `internal/...`/`cmd/...`/`examples/...` code references in the
// prose — must point at a file or directory that exists, so renames and
// deletions cannot silently rot README.md, DESIGN.md, EXPERIMENTS.md or
// CHANGES.md. External links (URLs) and intra-document anchors are out
// of scope.
//
// When DESIGN.md is among the checked files it must also stay a map of
// the system, at most designMax bytes long, and every section citation
// of it — the file name followed by a heading in double quotes — must
// name one of its headings. Citations are checked in the other markdown
// files given (except CHANGES.md, a log whose entries cite the document
// as it was then) and in the Go files under the working directory,
// where a citation may run across comment lines. CI runs it as the docs
// job:
//
//	netibis-doccheck README.md DESIGN.md EXPERIMENTS.md CHANGES.md
//
// With no arguments it checks every *.md file in the working directory.
// The exit status is non-zero when any link or citation is broken.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// designMax bounds DESIGN.md: cross-package rules, and a link to the
// package doc that specifies each mechanism.
const designMax = 45000

// citation matches a DESIGN.md section citation in a file whose lines
// and comment markers are folded into single spaces. A heading starts
// with a capital letter, which tells a citation from the file name
// closing a string literal.
var citation = regexp.MustCompile(`DESIGN\.md[\s,(]*"([A-Z][^"]{0,79})"`)

// checkDesign checks the design document's size, and that every section
// citation of it in files and in the Go files under the working
// directory names one of its headings.
func checkDesign(design string, files []string) (broken []string, err error) {
	data, err := os.ReadFile(design)
	if err != nil {
		return nil, err
	}
	if len(data) > designMax {
		broken = append(broken, fmt.Sprintf("%s: %d bytes, over %d", design, len(data), designMax))
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			headings[strings.Trim(line, "# ")] = true
		}
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") && !strings.Contains(path, "testdata") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		folded := strings.Join(strings.Fields(strings.ReplaceAll(string(data), "//", " ")), " ")
		for _, m := range citation.FindAllStringSubmatch(folded, -1) {
			if !headings[m[1]] {
				broken = append(broken, fmt.Sprintf("%s: cites DESIGN.md section %q, which is no heading there", f, m[1]))
			}
		}
	}
	return broken, nil
}

// mdLink matches [text](target) markdown links. Images and reference
// definitions are rare enough here that the one pattern covers the
// repository's documents.
var mdLink = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

// codeRef matches inline code spans referring to repository paths, e.g.
// `internal/estab` or `cmd/netibis-bench`. Only spans that look like
// paths into the known top-level trees are checked; spans with
// flags/expressions (spaces, colons) are prose, not paths.
var codeRef = regexp.MustCompile("`((?:internal|cmd|examples)/[A-Za-z0-9._/-]+)`")

func isExternal(target string) bool {
	return strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:")
}

func checkFile(path string) (broken []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	seen := map[string]bool{}
	verify := func(target, kind string) {
		if seen[kind+target] {
			return
		}
		seen[kind+target] = true
		rel := target
		if !filepath.IsAbs(rel) {
			rel = filepath.Join(dir, rel)
		}
		if _, serr := os.Stat(rel); serr != nil {
			broken = append(broken, fmt.Sprintf("%s: broken %s %q", path, kind, target))
		}
	}
	for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if isExternal(target) || strings.HasPrefix(target, "#") {
			continue
		}
		// Drop a trailing anchor: FILE.md#section checks FILE.md.
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
			if target == "" {
				continue
			}
		}
		verify(target, "link")
	}
	for _, m := range codeRef.FindAllStringSubmatch(string(data), -1) {
		// Code references may name a package directory or a file; both
		// must exist. `internal/drivers/*` style globs are prose.
		if strings.ContainsAny(m[1], "*") {
			continue
		}
		verify(m[1], "code reference")
	}
	return broken, nil
}

func main() {
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		matches, err := filepath.Glob("*.md")
		if err != nil || len(matches) == 0 {
			fmt.Fprintln(os.Stderr, "doccheck: no markdown files found")
			os.Exit(2)
		}
		files = matches
	}
	bad := 0
	report := func(broken []string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, b := range broken {
			fmt.Fprintln(os.Stderr, b)
			bad++
		}
	}
	design, citing := "", []string(nil)
	for _, f := range files {
		report(checkFile(f))
		if filepath.Base(f) == "DESIGN.md" {
			design = f
		} else if filepath.Base(f) != "CHANGES.md" {
			citing = append(citing, f)
		}
	}
	if design != "" {
		report(checkDesign(design, citing))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d broken link(s) or citation(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d file(s) clean\n", len(files))
}
