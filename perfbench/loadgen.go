package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// submission is one POST of the load generator and what became of it.
type submission struct {
	sent  time.Time
	acked time.Time
	code  int
	id    string
	err   error
}

// failurePause is how long a client waits after a refused or failed
// submit before the next, so a failing daemon is not hammered.
const failurePause = 10 * time.Millisecond

// closedLoop runs clients that each POST body(i) to url, call finished
// to wait until the accepted run is terminal (or the wait gives up), and
// POST the next, until window has passed since start or ctx is done.
// Indices are handed out in order, so the bodies sent depend only on how
// many were sent. It returns the submissions in index order.
func closedLoop(ctx context.Context, client *http.Client, url string, start time.Time,
	window time.Duration, clients int, body func(i int) []byte,
	finished func(ctx context.Context, id string)) []submission {
	var (
		mu   sync.Mutex
		subs []submission
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < window {
				mu.Lock()
				i := len(subs)
				subs = append(subs, submission{})
				mu.Unlock()

				s := submission{sent: time.Now()}
				s.code, s.id, s.err = post(ctx, client, url, body(i))
				s.acked = time.Now()
				if s.code == http.StatusAccepted {
					finished(ctx, s.id)
				} else {
					select {
					case <-ctx.Done():
					case <-time.After(failurePause):
					}
				}
				mu.Lock()
				subs[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return subs
}

// post sends one run submission and returns the status code and, on
// acceptance, the run ID.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, "", nil
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, st.ID, nil
}
