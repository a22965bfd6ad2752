package benchsuite

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// EnvKey is the BENCH_core.json key holding the Env the file was
// recorded under. The underscore keeps it apart from benchmark names;
// benchguard reports it and gates nothing on it.
const EnvKey = "_env"

// Env is the stamp that makes a recorded number interpretable: times
// and ep/s compare only between files whose stamps agree (the replica
// ladder means one thing at GOMAXPROCS 2 and another at 16). It is the
// stamp `go run ./bench` prints, minus what that program sets itself.
type Env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// CurrentEnv describes this process, run from the repository root.
// The commit is HEAD's, suffixed "+dirty" when the tree has changes
// HEAD does not hold: numbers recorded there are not HEAD's.
func CurrentEnv() Env {
	return Env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Commit: headCommit(".")}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	if m := regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`).FindSubmatch(b); m != nil {
		return string(m[1])
	}
	return "unknown"
}

// headCommit reads the commit checked out in the repository at root
// from its .git directory, then asks git whether the tree is dirty.
// Without a git binary the suffix is left off; outside a repository
// it reports "none".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown" // packed ref
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	cmd := exec.Command("git", "status", "--porcelain")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil && len(bytes.TrimSpace(out)) > 0 {
		ref += "+dirty"
	}
	return ref
}
