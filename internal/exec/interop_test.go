package exec

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/provenance"
	"reassign/internal/trace"
)

// TestJoinSkipsRejectedConnections: connections that fail the
// handshake — a stale JSON-lines (wire v1) worker, an HTTP probe, a
// preamble naming an unsupported version — are closed and not
// counted, and the join goes on until the binary workers have
// joined; the run then completes.
func TestJoinSkipsRejectedConnections(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(7)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	tcp := &TCP{Addr: "127.0.0.1:0", Workers: 2, TimeScale: 1e-4, JoinTimeout: 20 * time.Second}
	if err := tcp.Listen(); err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore()
	m, err := New(w, fleet, spreadPlan(w, fleet), tcp,
		WithStore(store, "interop"), WithLease(2000, 8))
	if err != nil {
		t.Fatal(err)
	}
	var strays []net.Conn
	for _, greeting := range []string{
		`{"type":"hello"}` + "\n",
		"GET / HTTP/1.0\r\n\r\n",
		"\xBFRX\x01",
	} {
		conn, err := net.Dial("tcp", tcp.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(greeting)); err != nil {
			t.Fatal(err)
		}
		strays = append(strays, conn)
	}
	for i := 0; i < 2; i++ {
		conn := startWorker(t, tcp.ListenAddr(), nil)
		defer conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ids, err := tcp.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("joined workers = %v, want 2", ids)
	}
	rep, err := m.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 50 || rep.Abandoned != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if store.Len() != 50 {
		t.Fatalf("provenance rows = %d", store.Len())
	}
	in, out := tcp.Bytes()
	if in <= 0 || out <= 0 {
		t.Fatalf("wire byte counters not moving: in=%d out=%d", in, out)
	}
	// The master closed every rejected connection without a welcome.
	for i, conn := range strays {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
			t.Errorf("stray %d: read %d bytes, err %v; want EOF", i, n, err)
		}
	}
}

// TestJoinTimeoutReportsRejections: when the join times out after
// rejecting connections, the error says how many and why the last one
// was refused.
func TestJoinTimeoutReportsRejections(t *testing.T) {
	tcp := &TCP{Addr: "127.0.0.1:0", Workers: 1, JoinTimeout: 300 * time.Millisecond}
	if err := tcp.Listen(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tcp.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"hello","slots":4}` + "\n")); err != nil {
		t.Fatal(err)
	}
	_, err = tcp.Open(context.Background())
	if err == nil {
		t.Fatal("join with no binary worker succeeded")
	}
	for _, want := range []string{"0 of 1 joined", "1 connections rejected", errWireV1.Error()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestReadPreamble: only 0xBF 'R' 'X' <wireVersion> opens a session; a
// '{' first byte is named as wire v1.
func TestReadPreamble(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		want string
	}{
		{string(binPreamble[:]), true, ""},
		{`{"type":"hello"}`, false, errWireV1.Error()},
		{"\xBFRX\x01", false, "unsupported wire version 1"},
		{"\xBFRX\x03", false, "unsupported wire version 3"},
		{"\xBFQX\x02", false, "bad preamble"},
		{"GET /", false, "bad preamble"},
		{"\xBFR", false, "preamble"},
		{"", false, "handshake read"},
	}
	for _, c := range cases {
		err := readPreamble(bufio.NewReader(strings.NewReader(c.in)))
		if c.ok {
			if err != nil {
				t.Errorf("%q: %v", c.in, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want one mentioning %q", c.in, err, c.want)
		}
	}
	if err := readPreamble(bufio.NewReader(strings.NewReader("{"))); !errors.Is(err, errWireV1) {
		t.Errorf("'{' first byte: err = %v, want errWireV1", err)
	}
}

// TestCodecDeterminismOracle: the same seeded run must produce
// byte-identical provenance whether messages skip the wire entirely or
// round-trip through the codec. Any semantic divergence (lost fields,
// precision drift, reordered argv) breaks the byte comparison.
func TestCodecDeterminismOracle(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(3)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	run := func(wrap func(Transport) Transport) []byte {
		store := provenance.NewStore()
		store.SetNow(func() time.Time { return fixed })
		fl := cloud.DefaultFluctuation()
		var tr Transport = &InProc{Workers: 4, Runner: FailingRunner{
			Inner: SimRunner{Fluct: &fl, Seed: 5}, Rate: 0.05, Seed: 5,
		}}
		if wrap != nil {
			tr = wrap(tr)
		}
		m, err := New(w, fleet, spreadPlan(w, fleet), tr, WithStore(store, "oracle"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bare := run(nil)
	viaBin := run(func(tr Transport) Transport { return &WireCheck{Inner: tr} })
	if !bytes.Equal(bare, viaBin) {
		t.Fatal("binary codec round trip changed provenance")
	}
}
