package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/session"
)

// Client enqueues tuning queries with a coordinator and polls them to
// completion.
type Client struct {
	// Base is the coordinator base URL, e.g. "http://127.0.0.1:8790".
	Base string
	// Poll is the job-status polling interval; <= 0 selects 200ms.
	Poll time.Duration
}

// RunTune forwards one tuning query through the coordinator and returns the
// worker's result. A failed job is an error carrying the job's message.
func (c *Client) RunTune(ctx context.Context, q session.Query) (*session.Result, error) {
	body, _ := json.Marshal(q) // strings, ints and a string slice always encode
	payload, err := call(ctx, http.MethodPost, c.Base+"/enqueue", body)
	if err != nil {
		return nil, fmt.Errorf("fleet: enqueue: %w", err)
	}
	var enq struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &enq); err != nil || enq.ID == "" {
		return nil, fmt.Errorf("fleet: coordinator returned no job id")
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		payload, err := call(ctx, http.MethodGet, c.Base+"/job?id="+url.QueryEscape(enq.ID), nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: job %s: %w", enq.ID, err)
		}
		var st job
		if err := json.Unmarshal(payload, &st); err != nil {
			return nil, fmt.Errorf("fleet: bad job status: %w", err)
		}
		switch st.State {
		case stateDone:
			var res session.Result
			if err := json.Unmarshal(st.Result, &res); err != nil {
				return nil, fmt.Errorf("fleet: bad tuning result: %w", err)
			}
			return &res, nil
		case stateFailed:
			return nil, fmt.Errorf("fleet: job %s failed: %s", enq.ID, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: waiting for job %s: %w", enq.ID, ctx.Err())
		case <-t.C:
		}
	}
}
