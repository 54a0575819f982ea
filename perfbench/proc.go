package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished child process: its stdout and what it cost.
type procRun struct {
	out    []byte
	wall   time.Duration // Start to Wait, process creation included
	cpu    time.Duration // user + system time of the child
	maxRSS float64       // peak resident set size, MB
}

// runProc runs a program to completion and measures it. A non-zero exit
// is an error carrying the tail of the child's stderr.
func runProc(ctx context.Context, name string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 2000 {
			msg = msg[len(msg)-2000:]
		}
		return procRun{}, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, msg)
	}
	return procRun{
		out:    stdout.Bytes(),
		wall:   wall,
		cpu:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		maxRSS: maxRSSMB(cmd.ProcessState.SysUsage()),
	}, nil
}

// maxRSSMB reads ru_maxrss (KiB on Linux) out of a child's rusage, in MB.
func maxRSSMB(u any) float64 {
	if ru, ok := u.(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / 1e6
	}
	return 0
}
