package nativecache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// libraryDirs are the packages a generated optimizer links against — the
// transitive closure of repro/optlib, repro/ir and repro/dep (the only
// imports codegen emits) plus go.mod. Their tree hash is part of every
// artifact key: an edit to any linked library moves the key, so an on-disk
// artifact can never silently serve stale library code. The closure is
// asserted against `go list -deps` by TestLibraryClosureCurrent.
var libraryDirs = []string{
	"dep",
	"internal/cfg",
	"internal/dataflow",
	"internal/frontend",
	"internal/gospel",
	"internal/handopt",
	"ir",
	"optlib",
}

// treeHash digests the module's go.mod and every non-test Go file under the
// library closure, by sorted relative path.
func treeHash(moduleRoot string) (string, error) {
	h := sha256.New()
	files := []string{"go.mod"}
	for _, dir := range libraryDirs {
		err := filepath.WalkDir(filepath.Join(moduleRoot, dir), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(moduleRoot, path)
			if err != nil {
				return err
			}
			files = append(files, filepath.ToSlash(rel))
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	sort.Strings(files)
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(moduleRoot, rel))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// FindModuleRoot locates the repro module checkout the generated code must
// link against: it walks upward from the working directory, then from the
// executable's directory, looking for a go.mod declaring module repro.
func FindModuleRoot() (string, error) {
	var tried []string
	if wd, err := os.Getwd(); err == nil {
		if root, ok := findUp(wd); ok {
			return root, nil
		}
		tried = append(tried, wd)
	}
	if exe, err := os.Executable(); err == nil {
		if root, ok := findUp(filepath.Dir(exe)); ok {
			return root, nil
		}
		tried = append(tried, filepath.Dir(exe))
	}
	return "", fmt.Errorf("nativecache: no repro module root above %s (set -native-dir alongside an explicit module root, or run inside the checkout)", strings.Join(tried, ", "))
}

func findUp(dir string) (string, bool) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module repro" {
					return dir, true
				}
				if strings.HasPrefix(strings.TrimSpace(line), "module ") {
					break
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}
