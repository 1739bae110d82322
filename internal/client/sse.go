package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/obs"
)

// errStreamDone is the internal sentinel a frame callback returns to
// end an SSE scan successfully (a terminal frame arrived).
var errStreamDone = errors.New("client: stream done")

// follow is the one client loop behind every event stream: it holds the
// SSE stream at path open, handing onFrame every decoded frame
// (heartbeats included; frame types this client does not know are
// skipped), until a frame carrying the stream's terminal state
// (api.Event.Terminal) has been handled. A dropped stream reconnects
// with backoff, sending the last seen id as Last-Event-ID so the server
// resumes after it; the retry budget resets whenever a connection
// delivered a frame.
func (c *Client) follow(ctx context.Context, path string, onFrame func(api.Event)) error {
	var lastEventID string
	sleep := c.sleeper()
	for attempt := 1; ; attempt++ {
		progressed, err := c.followOnce(ctx, path, &lastEventID, onFrame)
		if err == nil {
			return nil
		}
		if progressed {
			attempt = 1
		}
		if !Retryable(err) || attempt >= c.Retry.MaxAttempts() {
			return err
		}
		if c.Logger != nil {
			c.Logger.Debug("rmserved event stream reconnecting", "path", path, "attempt", attempt, "last_event_id", lastEventID, "error", err.Error())
		}
		if serr := sleep(ctx, c.Retry.Delay(attempt)); serr != nil {
			return err
		}
	}
}

// followOnce holds one connection of follow's stream. It returns nil
// once a terminal frame was handled, and whether any frame carrying an
// id arrived (progress, for the reconnect budget).
func (c *Client) followOnce(ctx context.Context, path string, lastEventID *string, onFrame func(api.Event)) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(obs.RequestIDHeader, requestID(ctx))
	if *lastEventID != "" {
		req.Header.Set("Last-Event-ID", *lastEventID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}
	progressed := false
	err = scanSSE(resp.Body, func(evID, name string, data []byte) error {
		ev, perr := api.ParseSSE(name, data)
		if perr != nil {
			if errors.Is(perr, api.ErrUnknownEventType) {
				return nil // a newer server; skip frames we don't know
			}
			return fmt.Errorf("client: decoding event: %w", perr)
		}
		onFrame(ev)
		if evID != "" {
			*lastEventID = evID
			progressed = true
		}
		if ev.Terminal() {
			return errStreamDone
		}
		return nil
	})
	switch {
	case errors.Is(err, errStreamDone):
		return progressed, nil
	case err != nil:
		return progressed, err
	}
	return progressed, io.ErrUnexpectedEOF
}

// scanSSE reads Server-Sent Events frames from r, invoking fn once per
// complete frame with its id, event name, and data payload (any of
// which may be empty). A non-nil callback error stops the scan and is
// returned. Reaching EOF cleanly returns nil — callers decide whether
// an EOF without a terminal frame is an error (it usually means the
// connection dropped and the stream should resume via Last-Event-ID).
func scanSSE(r io.Reader, fn func(id, name string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var id, name string
	var data []byte
	flush := func() error {
		if data == nil {
			id, name = "", ""
			return nil
		}
		err := fn(id, name, data)
		id, name, data = "", "", nil
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// A final frame not terminated by a blank line still counts.
	return flush()
}
