package core

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/faultnet"
)

func TestRetryBudgetAccounting(t *testing.T) {
	b := NewRetryBudget(0.5, 4)
	if got := b.Tokens(); got != 4 {
		t.Fatalf("fresh bucket = %v tokens, want 4 (starts full)", got)
	}
	for i := 0; i < 4; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdraw %d refused with tokens in the bucket", i+1)
		}
	}
	if b.Withdraw() {
		t.Fatal("withdraw from an empty bucket succeeded")
	}
	if got := b.Exhausted(); got != 1 {
		t.Fatalf("exhausted = %d, want 1", got)
	}
	// Two requests at ratio 0.5 buy exactly one retry.
	b.Deposit()
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("withdraw refused after two deposits at ratio 0.5")
	}
	if b.Withdraw() {
		t.Fatal("deposits bought more retries than ratio x requests")
	}
	// Deposits cap at the burst depth.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 4 {
		t.Fatalf("bucket = %v tokens after heavy deposits, want burst cap 4", got)
	}
}

func TestRetryBudgetDefaultsAndClamps(t *testing.T) {
	b := NewRetryBudget(0, 0)
	if b.Ratio() != DefaultRetryBudgetRatio {
		t.Errorf("ratio = %v, want default %v", b.Ratio(), DefaultRetryBudgetRatio)
	}
	if b.Tokens() != DefaultRetryBudgetBurst {
		t.Errorf("burst = %v, want default %v", b.Tokens(), float64(DefaultRetryBudgetBurst))
	}
	if b := NewRetryBudget(7, 1); b.Ratio() != 1 {
		t.Errorf("ratio 7 not clamped to 1: %v", b.Ratio())
	}
}

func TestRetryBudgetNilPermitsEverything(t *testing.T) {
	var b *RetryBudget
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("nil budget refused a retry")
	}
	if b.Exhausted() != 0 || b.Tokens() != 0 || b.Ratio() != 0 {
		t.Fatal("nil budget accessors not zero")
	}
	b.Register(nil, "x")
}

// TestRetryBudgetCapsRetryStorm: against a blackholed upstream, a
// fleet of fetches through one budgeted client must spend at most
// burst + ratio*requests retries — the storm-guard property — instead
// of MaxAttempts-1 retries per fetch.
func TestRetryBudgetCapsRetryStorm(t *testing.T) {
	var dials atomic.Uint64
	dial := func() (net.Conn, error) {
		dials.Add(1)
		return faultnet.Blackhole(), nil
	}
	rc := NewResilientClient(dial, device.Workstation, nil, RetryPolicy{
		MaxAttempts:    4,
		AttemptTimeout: 5 * time.Millisecond,
		BaseDelay:      time.Millisecond,
		MaxDelay:       2 * time.Millisecond,
		Seed:           7,
	})
	defer rc.Close()
	const burst, ratio = 3, 0.25
	rc.SetRetryBudget(NewRetryBudget(ratio, burst))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const fetches = 40
	var exhausted int
	for i := 0; i < fetches; i++ {
		_, err := rc.FetchRawContext(ctx, "/x")
		if err == nil {
			t.Fatal("fetch through a blackhole succeeded")
		}
		if errors.Is(err, ErrRetryBudgetExhausted) {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("no fetch reported ErrRetryBudgetExhausted")
	}
	attempts := dials.Load()
	// Every fetch dials once; retries beyond that are budget-bounded.
	maxRetries := float64(burst) + ratio*fetches
	if float64(attempts) > fetches+maxRetries+1 {
		t.Errorf("%d dials for %d fetches: retries exceeded budget %0.f",
			attempts, fetches, maxRetries)
	}
	if got := rc.retryBudget().Exhausted(); got == 0 {
		t.Error("budget exhaustion counter = 0")
	}
}
