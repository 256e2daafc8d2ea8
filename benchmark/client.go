package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one HTTP/1.1 keep-alive connection driven by hand: the request
// bytes are written as built, and only the status, body length and body of
// the reply are parsed. One conn is one TCP connection, which is how the
// generator guarantees its connection count, and net/http's client would
// cost the generator about as much CPU per request as the server spends
// (generator and server share two cores).
type conn struct {
	addr  string
	c     net.Conn
	br    *bufio.Reader
	body  []byte
	dials int
}

// timing marks the layer boundaries of one exchange as the generator sees
// them: request written, first reply byte, body read.
type timing struct {
	start, wrote, first, end time.Time
}

func (t timing) ms() float64 { return float64(t.end.Sub(t.start)) / float64(time.Millisecond) }

var errBadReply = errors.New("malformed HTTP reply")

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close() // nothing to flush on a request/reply connection
		c.c = nil
	}
}

// roundTrip sends one prebuilt request and reads its reply. The returned
// body is valid until the next call. Any error closes the connection; the
// next call dials again.
func (c *conn) roundTrip(req []byte) (status int, body []byte, t timing, err error) {
	t.start = time.Now()
	if c.c == nil {
		nc, derr := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if derr != nil {
			return 0, nil, t, derr
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
		c.dials++
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err = c.c.SetDeadline(t.start.Add(10 * time.Second)); err != nil {
		return 0, nil, t, err
	}
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, t, err
	}
	t.wrote = time.Now()

	line, err := c.br.ReadSlice('\n')
	t.first = time.Now()
	if err != nil {
		return 0, nil, t, err
	}
	// "HTTP/1.1 202 Accepted\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, t, errBadReply
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, t, errBadReply
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, t, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, t, errBadReply
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, t, errBadReply
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		return 0, nil, t, fmt.Errorf("%w: no body length", errBadReply)
	}
	if err != nil {
		return 0, nil, t, err
	}
	t.end = time.Now()
	if closing {
		c.close()
	}
	return status, c.body, t, nil
}

func (c *conn) readN(n int) error {
	at := len(c.body)
	if cap(c.body)-at < n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimSpace(line), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil {
			return errBadReply
		}
		if n == 0 {
			// No trailers are sent by this server; the chunked body ends
			// with one empty line.
			_, err = c.br.ReadSlice('\n')
			return err
		}
		if err := c.readN(int(n)); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

// acceptedIn extracts the "accepted" count of a publish reply.
func acceptedIn(body []byte) int {
	_, rest, ok := bytes.Cut(body, []byte(`"accepted":`))
	if !ok {
		return 0
	}
	n := 0
	for _, b := range rest {
		if b < '0' || b > '9' {
			break
		}
		n = n*10 + int(b-'0')
	}
	return n
}
