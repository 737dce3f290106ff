package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/timeutil"
	"sww/internal/workload"
)

// E20: abuse-rate defense under scripted adversaries. One legit
// ResilientClient fetches pages at a steady cadence, first alone
// (baseline) and then alongside a rapid-reset attacker and a
// PING-flood attacker on their own connections. The abuse ledger
// should escalate the attackers through ENHANCE_YOUR_CALM stream
// refusals to GOAWAY while the legit client's goodput stays within
// 25% of the no-attack baseline.

// AbuseAttackerStats summarizes one attacker's view of the round.
type AbuseAttackerStats struct {
	// Conns counts connections dialed: 1 plus a redial after every
	// GOAWAY (a determined attacker reconnects).
	Conns int
	// Sent counts attack units written: HEADERS+RST pairs for the
	// rapid-reset attacker, non-ACK PINGs for the ping flooder.
	Sent int
	// CalmRSTs counts streams the server refused with
	// RST_STREAM(ENHANCE_YOUR_CALM) once the connection was flagged.
	CalmRSTs int
	// GoAways counts GOAWAY(ENHANCE_YOUR_CALM) connection kills.
	GoAways int
}

// AbuseReport is the E20 result: the legit client's goodput with and
// without the attack, each attacker's escalation trace, and the
// server's abuse counters for the attack round.
type AbuseReport struct {
	Quick    bool
	Requests int // legit requests per round

	BaselineOK         int
	BaselineErrors     int
	BaselineGoodputRPS float64
	BaselineP50        time.Duration
	BaselineP99        time.Duration

	AttackOK         int
	AttackErrors     int
	AttackGoodputRPS float64
	AttackP50        time.Duration
	AttackP99        time.Duration

	// GoodputRatio is attack-round goodput over baseline goodput; the
	// acceptance bar is >= 0.75.
	GoodputRatio float64

	RapidReset AbuseAttackerStats
	PingFlood  AbuseAttackerStats

	// ServerStats is the attack-round overload/abuse counter snapshot.
	ServerStats overload.Stats
}

// abusePolicy is deliberately tight so escalation completes within a
// sub-second round: budget 5 per 2s window means an attacker pacing
// one unit per millisecond is ignored within ~5ms, calm-flagged
// within ~10ms and killed with GOAWAY within ~20ms.
func abusePolicy() *http2.AbusePolicy {
	return &http2.AbusePolicy{
		Window:           2 * time.Second,
		RapidResetBudget: 5,
		PingBudget:       5,
	}
}

// abuseGenHold is the modelled worker occupancy per generation
// (GenWallScale-calibrated, as in E19). It is what makes rapid reset
// an attack at all: with microsecond procedural generations every
// reset would land after the response and be normal turnover; with
// real occupancy each reset cancels in-flight work.
const abuseGenHold = 10 * time.Millisecond

// abuseAttackPages is the pool of distinct cold pages the rapid-reset
// attacker cycles through, so every attack stream misses the
// generated-content cache and demands a fresh generation.
const abuseAttackPages = 2048

// newAbuseServer builds the round's server: pages 0..requests-1 for
// the legit client plus the attack-page pool, a modest worker pool
// with calibrated generation occupancy, and the tight abuse budgets.
func newAbuseServer(requests int, wallScale float64) (*core.Server, error) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	srv.SetOverload(overload.Config{
		MaxGenWorkers: 4,
		QueueDeadline: 200 * time.Millisecond,
		GenWallScale:  wallScale,
	})
	srv.SetAbusePolicy(abusePolicy())
	for i := 0; i < requests+abuseAttackPages; i++ {
		srv.AddPage(workload.AbusePage(i))
	}
	return srv, nil
}

// abuseLegitRound drives the single legit ResilientClient: requests
// sequential fetches of distinct cold pages, one per tick. Sequential
// on purpose — any attack-induced slowdown stretches the round and
// shows up directly in goodput.
func abuseLegitRound(srv *core.Server, requests int, interval time.Duration) (ok, errs int, goodput float64, durs []time.Duration, err error) {
	dial := func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	}
	rc := core.NewResilientClient(dial, device.Laptop, nil, core.RetryPolicy{}, nil)
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < requests; i++ {
		<-tick.C
		t0 := time.Now()
		if _, ferr := rc.FetchContext(ctx, workload.AbusePagePath(i)); ferr != nil {
			errs++
			continue
		}
		ok++
		durs = append(durs, time.Since(t0))
	}
	elapsed := time.Since(start)
	return ok, errs, float64(ok) / elapsed.Seconds(), durs, nil
}

// attackCounters is the concurrency-safe backing for
// AbuseAttackerStats while reader and writer goroutines both score.
type attackCounters struct {
	conns, sent, calmRSTs, goAways atomic.Int64
}

func (c *attackCounters) stats() AbuseAttackerStats {
	return AbuseAttackerStats{
		Conns:    int(c.conns.Load()),
		Sent:     int(c.sent.Load()),
		CalmRSTs: int(c.calmRSTs.Load()),
		GoAways:  int(c.goAways.Load()),
	}
}

// An attackUnit writes one round of abuse on the connection's framer.
type attackUnit func(fr *http2.Framer, henc *hpack.Encoder, nextID func() uint32) error

// abuseRedialDelay models the attacker's reconnect cost after a
// GOAWAY (TCP + TLS + h2 handshake RTTs). net.Pipe redials are free,
// which no real attacker gets; without this the GOAWAY rung would
// look weaker here than it is on a real network.
const abuseRedialDelay = 50 * time.Millisecond

// runAttacker loops attack connections against srv until stop closes:
// dial, handshake, write units at pace while a reader goroutine counts
// ENHANCE_YOUR_CALM refusals, and redial after every GOAWAY.
func runAttacker(srv *core.Server, stop <-chan struct{}, pace time.Duration, unit attackUnit, ctr *attackCounters) {
	// Redial waits reuse one timer across the attack's lifetime; a
	// per-redial time.After would pile up live timers for the whole
	// soak.
	timer := timeutil.New()
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		default:
		}
		attackOneConn(srv, stop, pace, unit, ctr)
		if !timer.Wait(stop, abuseRedialDelay) {
			return
		}
	}
}

func attackOneConn(srv *core.Server, stop <-chan struct{}, pace time.Duration, unit attackUnit, ctr *attackCounters) {
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	ctr.conns.Add(1)
	defer cEnd.Close()

	// Handshake synchronously, dialRaw-style: net.Pipe has no buffer,
	// but the server only writes its SETTINGS after reading the
	// preface, so this strict alternation cannot deadlock.
	cEnd.SetDeadline(time.Now().Add(2 * time.Second))
	fr := http2.NewFramer(cEnd, cEnd)
	if _, err := io.WriteString(cEnd, http2.ClientPreface); err != nil {
		return
	}
	if err := fr.WriteSettings(); err != nil {
		return
	}
	if f, err := fr.ReadFrame(); err != nil || f.Type != http2.FrameSettings {
		return
	}
	if err := fr.WriteSettingsAck(); err != nil {
		return
	}
	cEnd.SetDeadline(time.Time{})

	// The reader owns all ReadFrame calls and the escalation counts;
	// it exits (closing dead) on GOAWAY or any read error. The Framer
	// permits reads concurrent with writes.
	dead := make(chan struct{})
	go func() {
		defer close(dead)
		for {
			cEnd.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			f, err := fr.ReadFrame()
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					select {
					case <-stop:
						return
					default:
						continue
					}
				}
				return
			}
			switch f.Type {
			case http2.FrameRSTStream:
				if len(f.Payload) >= 4 && http2.ErrCode(binary.BigEndian.Uint32(f.Payload)) == http2.ErrCodeEnhanceYourCalm {
					ctr.calmRSTs.Add(1)
				}
			case http2.FrameGoAway:
				if len(f.Payload) >= 8 && http2.ErrCode(binary.BigEndian.Uint32(f.Payload[4:8])) == http2.ErrCodeEnhanceYourCalm {
					ctr.goAways.Add(1)
				}
				return
			}
		}
	}()

	henc := hpack.NewEncoder()
	var id uint32 = 1
	nextID := func() uint32 {
		v := id
		id += 2
		return v
	}
	for {
		select {
		case <-stop:
			cEnd.Close() // unblocks the reader; defer is too late for it
			<-dead
			return
		case <-dead:
			return
		default:
		}
		if err := unit(fr, henc, nextID); err != nil {
			<-dead
			return
		}
		ctr.sent.Add(1)
		time.Sleep(pace)
	}
}

// rapidResetUnit is one CVE-2023-44487-shaped pair: open a stream
// against a fresh cold page (a real generation, never a cache hit),
// then cancel it immediately. The page cursor persists across
// redials — only the single attacker writer calls the unit, so the
// closure needs no lock.
func rapidResetUnit(firstPage int) attackUnit {
	page := 0
	return func(fr *http2.Framer, henc *hpack.Encoder, nextID func() uint32) error {
		id := nextID()
		path := workload.AbusePagePath(firstPage + page%abuseAttackPages)
		page++
		block := henc.AppendFields(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":path", Value: path},
		})
		if err := fr.WriteHeaders(id, true, true, block); err != nil {
			return err
		}
		return fr.WriteRSTStream(id, http2.ErrCodeCancel)
	}
}

// pingFloodUnit is one non-ACK PING, obliging an ACK write until the
// ledger's ignore stage kicks in.
func pingFloodUnit(fr *http2.Framer, henc *hpack.Encoder, nextID func() uint32) error {
	return fr.WritePing(false, [8]byte{'f', 'l', 'o', 'o', 'd'})
}

// AbuseSweep runs E20: a baseline legit round, then the same legit
// round with both attackers live, and reports goodput impact plus the
// ledger's escalation trace. quick trims the round for CI smoke runs.
func AbuseSweep(quick bool) (*AbuseReport, error) {
	requests, interval := 200, 10*time.Millisecond
	if quick {
		requests = 60
	}
	rep := &AbuseReport{Quick: quick, Requests: requests}

	// Calibrate GenWallScale so one generation occupies a worker for
	// abuseGenHold of wall time (the E19 calibration).
	probe, err := core.NewPageProcessor(device.Workstation, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	_, report, err := probe.Process(workload.AbusePage(0).Doc.Clone())
	if err != nil {
		return nil, err
	}
	if report.SimGenTime <= 0 {
		return nil, errors.New("experiments: load page has zero modelled generation time")
	}
	wallScale := float64(abuseGenHold) / float64(report.SimGenTime)

	// Baseline: legit client alone.
	srv, err := newAbuseServer(requests, wallScale)
	if err != nil {
		return nil, err
	}
	ok, errs, gp, durs, err := abuseLegitRound(srv, requests, interval)
	if err != nil {
		return nil, err
	}
	rep.BaselineOK, rep.BaselineErrors, rep.BaselineGoodputRPS = ok, errs, gp
	rep.BaselineP50, rep.BaselineP99 = percentiles(durs)

	// Attack round: fresh server, same legit pacing, both attackers
	// hammering for the whole round.
	srv, err = newAbuseServer(requests, wallScale)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var rst, ping attackCounters
	attackersDone := make(chan struct{}, 2)
	go func() {
		runAttacker(srv, stop, time.Millisecond, rapidResetUnit(requests), &rst)
		attackersDone <- struct{}{}
	}()
	go func() {
		runAttacker(srv, stop, time.Millisecond, pingFloodUnit, &ping)
		attackersDone <- struct{}{}
	}()

	ok, errs, gp, durs, err = abuseLegitRound(srv, requests, interval)
	close(stop)
	<-attackersDone
	<-attackersDone
	if err != nil {
		return nil, err
	}
	rep.AttackOK, rep.AttackErrors, rep.AttackGoodputRPS = ok, errs, gp
	rep.AttackP50, rep.AttackP99 = percentiles(durs)
	rep.RapidReset = rst.stats()
	rep.PingFlood = ping.stats()
	rep.ServerStats = srv.OverloadStats()
	if rep.BaselineGoodputRPS > 0 {
		rep.GoodputRatio = rep.AttackGoodputRPS / rep.BaselineGoodputRPS
	}
	return rep, nil
}

// reportAbuse prints E20 as JSON (the acceptance numbers — legit
// goodput with and without attack, shed/GOAWAY counts — are the
// deliverable) and fails if the defense missed its bars.
func reportAbuse(w io.Writer, quick bool) (any, error) {
	rep, err := AbuseSweep(quick)
	if err != nil {
		return nil, err
	}
	if err := writeJSON(w, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "legit goodput %.0f/s baseline vs %.0f/s under attack (ratio %.2f)\n",
		rep.BaselineGoodputRPS, rep.AttackGoodputRPS, rep.GoodputRatio)
	fmt.Fprintf(w, "rapid-reset attacker: %d conns, %d pairs, %d calm RSTs, %d GOAWAYs; "+
		"ping flooder: %d conns, %d pings, %d GOAWAYs\n",
		rep.RapidReset.Conns, rep.RapidReset.Sent, rep.RapidReset.CalmRSTs, rep.RapidReset.GoAways,
		rep.PingFlood.Conns, rep.PingFlood.Sent, rep.PingFlood.GoAways)
	switch {
	case rep.GoodputRatio < 0.75:
		return rep, fmt.Errorf("legit goodput under attack fell to %.2fx of baseline (want >= 0.75)",
			rep.GoodputRatio)
	case rep.RapidReset.GoAways == 0 && rep.RapidReset.CalmRSTs == 0:
		return rep, errors.New("rapid-reset attacker was never escalated")
	case rep.PingFlood.GoAways == 0:
		return rep, errors.New("ping flooder was never killed")
	}
	return rep, nil
}
