// Command netibis-doccheck validates the repository's markdown
// documentation: every intra-repository link — `[text](path)` links and
// bare `internal/...`/`cmd/...`/`examples/...` code references in the
// prose — must point at a file or directory that exists, so renames and
// deletions cannot silently rot README.md, DESIGN.md, EXPERIMENTS.md or
// CHANGES.md. External links (URLs) and intra-document anchors are out
// of scope. CI runs it as the docs job:
//
//	netibis-doccheck README.md DESIGN.md EXPERIMENTS.md CHANGES.md
//
// With no arguments it checks every *.md file in the working directory.
// The exit status is non-zero when any link is broken.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

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
	for _, f := range files {
		broken, err := checkFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, b := range broken {
			fmt.Fprintln(os.Stderr, b)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d broken link(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d file(s) clean\n", len(files))
}
