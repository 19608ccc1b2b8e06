package service

import (
	"bytes"
	"encoding/json"
	"errors"
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

// Client speaks the websliced HTTP API (NewHandler) to one base URL, a
// worker's or a coordinator's. It reads every answer to EOF before closing
// it, so keep-alive connections are reused.
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
	var req *http.Request
	var err error
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
		req, err = c.request(http.MethodPost, "/jobs/trace?"+q.Encode(), "application/octet-stream", spec.Trace)
	} else {
		body, merr := json.Marshal(spec)
		if merr != nil {
			return "", merr
		}
		req, err = c.request(http.MethodPost, "/jobs", "application/json", body)
	}
	if err != nil {
		return "", err
	}
	obs.InjectContext(req.Header, spec.TraceCtx)
	var out struct {
		ID string `json:"id"`
	}
	err = c.do(req, http.StatusAccepted, &out)
	return out.ID, err
}

// Cancel cancels a job. A job that is unknown or already finished is an
// *APIError with code 409.
func (c *Client) Cancel(id string) error {
	req, err := c.request(http.MethodDelete, "/jobs/"+id, "", nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusOK, nil)
}

// Info fetches a job's status.
func (c *Client) Info(id string) (Info, error) {
	var info Info
	err := c.get("/jobs/"+id, &info)
	return info, err
}

// Result fetches a finished job's result. ok is false, with a nil error,
// while the job is known but not done.
func (c *Client) Result(id string) (res *Result, ok bool, err error) {
	res = new(Result)
	err = c.get("/jobs/"+id+"/result", res)
	var e *APIError
	if errors.As(err, &e) && e.Code == http.StatusConflict {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
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
	req, err := c.request(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusOK, out)
}

func (c *Client) request(method, path, contentType string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return req, nil
}

// do sends req and reads the whole answer. A status other than want is an
// *APIError carrying the server's {"error"} message; otherwise the body is
// decoded into out, unless out is nil.
func (c *Client) do(req *http.Request, want int, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		e := &APIError{Code: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
		var msg struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &msg) == nil && msg.Error != "" {
			e.Message = msg.Error
		} else {
			e.Message = fmt.Sprintf("%s %s: HTTP %d", req.Method, req.URL.Redacted(), resp.StatusCode)
		}
		return e
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}
