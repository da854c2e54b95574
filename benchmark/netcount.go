package main

import (
	"net"
	"net/http"
	"sync/atomic"
)

// countingListener wraps a net.Listener and counts the bytes its
// accepted connections write and the connections it accepts — the
// benchmark-owned meter behind watch.wire_bytes_per_event.
type countingListener struct {
	net.Listener
	written atomic.Int64
	read    atomic.Int64
	conns   atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.read.Add(int64(n))
	return n, err
}

// loopbackServer is an HTTP server on a counted loopback listener.
type loopbackServer struct {
	ln   *countingListener
	srv  *http.Server
	url  string
	done chan struct{}
}

// serveLoopback starts h on 127.0.0.1:0.
func serveLoopback(h http.Handler) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &countingListener{Listener: ln}
	s := &loopbackServer{
		ln:   cl,
		srv:  &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(cl) // always ErrServerClosed: close() is the only way out
	}()
	return s, nil
}

// close drops every connection and waits for the accept loop to exit.
func (s *loopbackServer) close() {
	s.srv.Close()
	<-s.done
}
