package obsflag

import (
	"bytes"
	"context"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A clean exit calls stop without any signal having arrived; that must
// not be reported as an interrupt.
func TestWithSignalsCleanStopIsSilent(t *testing.T) {
	var errs bytes.Buffer
	f := &Flags{prog: "facc", stderr: &errs}
	ctx, stop := f.WithSignals(context.Background())
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop did not cancel the context")
	}
	if errs.Len() != 0 {
		t.Fatalf("clean stop printed %q", errs.String())
	}
}

func TestWithSignalsParentCancelIsSilent(t *testing.T) {
	var errs bytes.Buffer
	f := &Flags{prog: "facc", stderr: &errs}
	parent, cancel := context.WithCancel(context.Background())
	ctx, stop := f.WithSignals(parent)
	cancel()
	<-ctx.Done()
	stop()
	if errs.Len() != 0 {
		t.Fatalf("parent cancellation printed %q", errs.String())
	}
}

func TestWithSignalsReportsRealInterrupt(t *testing.T) {
	var errs bytes.Buffer
	f := &Flags{prog: "facc", stderr: &errs}
	ctx, stop := f.WithSignals(context.Background())
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	stop()
	if !strings.Contains(errs.String(), "facc: interrupt: finishing up") {
		t.Fatalf("interrupt not reported; stderr = %q", errs.String())
	}
}
