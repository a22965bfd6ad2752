package benchsuite

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHeadCommitDirty: the stamp is HEAD's hash on a clean tree and
// carries "+dirty" once a tracked file is edited.
func TestHeadCommitDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git binary")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=bench", "-c", "user.email=bench@example.com"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "f")
	git("commit", "-q", "-m", "one")
	want := git("rev-parse", "HEAD")[:12]
	if got := headCommit(dir); got != want {
		t.Fatalf("clean tree: commit %q, want %q", got, want)
	}
	if err := os.WriteFile(file, []byte("b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := headCommit(dir); got != want+"+dirty" {
		t.Fatalf("edited tree: commit %q, want %q", got, want+"+dirty")
	}
}
