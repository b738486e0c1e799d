package wmsn_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// docPath matches a written-out path such as internal/core/stack.go.
	docPath = regexp.MustCompile(`\b(?:examples|cmd|internal)(?:/[A-Za-z0-9_.-]+)+`)
	// treeParent and treeChild match README's architecture tree, where a
	// package sits on an indented "name/" line under its "internal/" line.
	treeParent = regexp.MustCompile(`^(cmd|internal)/\s*$`)
	treeChild  = regexp.MustCompile(`^  ([A-Za-z0-9_.-]+)/`)
)

// TestDocPathsExist checks that every examples/, cmd/ and internal/ path
// the top-level documents name exists, so they describe no program that
// was never written or has since been deleted, and that README's
// architecture tree lists every directory under cmd/ and internal/.
func TestDocPathsExist(t *testing.T) {
	tree := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		parent := ""
		for i, line := range strings.Split(string(b), "\n") {
			paths := docPath.FindAllString(line, -1)
			if m := treeParent.FindStringSubmatch(line); m != nil {
				parent = m[1]
			} else if m := treeChild.FindStringSubmatch(line); m != nil && parent != "" {
				paths = append(paths, parent+"/"+m[1])
				if doc == "README.md" {
					tree[parent+"/"+m[1]] = true
				}
			} else {
				parent = ""
			}
			for _, p := range paths {
				p = strings.TrimRight(p, ".")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}
	for _, parent := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if p := parent + "/" + e.Name(); e.IsDir() && !tree[p] {
				t.Errorf("README.md's architecture tree does not list %s", p)
			}
		}
	}
}
