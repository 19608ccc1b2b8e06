package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"webslice/internal/obs"
)

// maxResponse bounds one answer's body; results and span trees are the
// largest.
const maxResponse = 8 << 20

// APIError is a non-2xx answer of the websliced API: its status code, the
// server's message, and its Retry-After header ("" when absent). Client
// returns every non-2xx answer as one, and WriteError answers one with
// its own code and Retry-After, so a coordinator passes a worker's refusal
// of a submit through to its own client unchanged.
type APIError struct {
	Code       int
	Message    string
	RetryAfter string
}

func (e *APIError) Error() string { return e.Message }

// Is reports a 404 answer as ErrUnknownJob and a 409 as ErrJobState, so
// a Client's refusals match a Manager's.
func (e *APIError) Is(target error) bool {
	return target == ErrUnknownJob && e.Code == http.StatusNotFound ||
		target == ErrJobState && e.Code == http.StatusConflict
}

// Client speaks the websliced HTTP API (NewHandler) to one base URL, a
// worker's or a coordinator's. It reads every answer to EOF before closing
// it, so keep-alive connections are reused. A failure to get an answer,
// or one that does not decode, wraps ErrUnreachable.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client of the API at base (for example
// http://localhost:8077) over hc.
func NewClient(base string, hc *http.Client) *Client {
	return &Client{base: base, hc: hc}
}

// Submit posts a job and returns its id: an upload (spec.Trace) goes to
// POST /jobs/trace with its criteria, verify flag and origin in the query,
// any other spec as JSON to POST /jobs. spec.TraceCtx travels as the W3C
// traceparent header, never in the body, so the job's spans join the
// caller's trace.
func (c *Client) Submit(spec Spec) (string, error) {
	path, contentType, body := "/jobs", "application/json", []byte(nil)
	if len(spec.Trace) > 0 {
		q := url.Values{}
		if spec.Criteria != "" {
			q.Set("criteria", spec.Criteria)
		}
		if spec.Verify {
			q.Set("verify", "1")
		}
		if spec.Origin != "" {
			q.Set("origin", spec.Origin)
		}
		path, contentType, body = "/jobs/trace?"+q.Encode(), "application/octet-stream", spec.Trace
	} else {
		var err error
		if body, err = json.Marshal(spec); err != nil {
			return "", err
		}
	}
	var out struct {
		ID string `json:"id"`
	}
	err := c.do(http.MethodPost, path, contentType, body, spec.TraceCtx, http.StatusAccepted, &out)
	return out.ID, err
}

// Cancel cancels a job.
func (c *Client) Cancel(id string) error {
	return c.do(http.MethodDelete, "/jobs/"+id, "", nil, obs.SpanContext{}, http.StatusOK, nil)
}

// Info fetches a job's status.
func (c *Client) Info(id string) (Info, error) {
	var info Info
	err := c.get("/jobs/"+id, &info)
	return info, err
}

// Result fetches a finished job's result.
func (c *Client) Result(id string) (*Result, error) {
	res := new(Result)
	if err := c.get("/jobs/"+id+"/result", res); err != nil {
		return nil, err
	}
	return res, nil
}

// JobTrace fetches the recorded spans of a job's trace.
func (c *Client) JobTrace(id string) ([]obs.SpanData, error) {
	var spans []obs.SpanData
	err := c.get("/jobs/"+id+"/trace", &spans)
	return spans, err
}

// Quarantined fetches the poisoned-job list.
func (c *Client) Quarantined() ([]Info, error) {
	var jobs []Info
	err := c.get("/jobs/quarantined", &jobs)
	return jobs, err
}

// Health returns nil when the server answers GET /healthz with 200; a
// draining server answers 503.
func (c *Client) Health() error { return c.get("/healthz", nil) }

func (c *Client) get(path string, out any) error {
	return c.do(http.MethodGet, path, "", nil, obs.SpanContext{}, http.StatusOK, out)
}

// do sends one request, with tc as its traceparent, and reads the whole
// answer. A status other than want is an *APIError carrying the server's
// {"error"} message; otherwise the body is decoded into out, unless out is
// nil. No answer, or a body that does not decode, wraps ErrUnreachable.
func (c *Client) do(method, path, contentType string, body []byte, tc obs.SpanContext, want int, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnreachable, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	obs.InjectContext(req.Header, tc)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnreachable, err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUnreachable, err)
	}
	if resp.StatusCode != want {
		e := &APIError{Code: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
		var msg struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(answer, &msg) == nil && msg.Error != "" {
			e.Message = msg.Error
		} else {
			e.Message = fmt.Sprintf("%s %s: HTTP %d", req.Method, req.URL.Redacted(), resp.StatusCode)
		}
		return e
	}
	if out != nil {
		if err := json.Unmarshal(answer, out); err != nil {
			return fmt.Errorf("%w: %s %s: HTTP %d body: %w", ErrUnreachable, req.Method, req.URL.Redacted(), resp.StatusCode, err)
		}
	}
	return nil
}
