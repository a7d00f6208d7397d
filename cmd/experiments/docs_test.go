package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDocBytes bounds EXPERIMENTS.md and DESIGN.md: each describes the
// system as it is, and a past change's measurement log is one line that
// names its commit, where the full text stays.
const maxDocBytes = 35 << 10

// rootDocs are the documents at the repository's root that describe
// the system; the other root-level Markdown files are reference
// material (the paper's abstract, related work, exemplar code).
var rootDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md", "ROADMAP.md"}

var (
	// citation matches DESIGN.md or EXPERIMENTS.md followed by a quoted
	// section name, once line breaks (and the comment markers after
	// them) are folded into spaces.
	citation = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md[` + "`" + `*]* "([^"]+)"`)
	// commentBreak is a line break inside a // comment.
	commentBreak = regexp.MustCompile(`\n[ \t]*//[ \t]*`)
	space        = regexp.MustCompile(`\s+`)
	// section is a heading or a bold lead-in at the start of a line
	// (after a list marker, if any).
	section = regexp.MustCompile(`(?m)^(?:#+[ \t]+(.+)$|[ \t]*(?:[-*][ \t]+|\d+\.[ \t]+)?\*\*(.+?)\*\*)`)
)

func fold(s string) string {
	return strings.TrimSpace(space.ReplaceAllString(commentBreak.ReplaceAllString(s, " "), " "))
}

// sections lists the headings and bold lead-ins of a document.
func sections(doc string) []string {
	var out []string
	for _, m := range section.FindAllStringSubmatch(doc, -1) {
		out = append(out, fold(m[1]+m[2]))
	}
	return out
}

// names reports whether a section's title is x, or begins with x
// followed by a character that cannot continue a word.
func names(title, x string) bool {
	rest, ok := strings.CutPrefix(title, x)
	if !ok {
		return false
	}
	if rest == "" {
		return true
	}
	c := rest[0]
	return !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_')
}

// TestDocs keeps EXPERIMENTS.md and DESIGN.md within maxDocBytes and
// every citation of one of their sections real: a quoted name after
// DESIGN.md or EXPERIMENTS.md, in any Go or Markdown file of the
// repository, names a heading or bold lead-in of that file.
func TestDocs(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(p string) string {
		t.Helper()
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	titles := map[string][]string{}
	for _, doc := range []string{"DESIGN", "EXPERIMENTS"} {
		text := read(filepath.Join(root, doc+".md"))
		if len(text) > maxDocBytes {
			t.Errorf("%s.md is %d B, the bound is %d B", doc, len(text), maxDocBytes)
		}
		titles[doc] = sections(text)
	}

	var files []string
	for _, doc := range rootDocs {
		files = append(files, filepath.Join(root, doc))
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir():
			return nil
		case strings.HasSuffix(p, ".go") || filepath.Dir(p) != root && strings.HasSuffix(p, ".md"):
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, p := range files {
		for _, m := range citation.FindAllStringSubmatch(fold(read(p)), -1) {
			cited++
			doc, x := m[1], m[2]
			found := false
			for _, title := range titles[doc] {
				if names(title, x) {
					found = true
					break
				}
			}
			if !found {
				rel, _ := filepath.Rel(root, p)
				t.Errorf("%s cites %s.md %q, which has no such heading or bold lead-in", rel, doc, x)
			}
		}
	}
	if cited == 0 {
		t.Error("no citation found: the scan is broken")
	}
}
