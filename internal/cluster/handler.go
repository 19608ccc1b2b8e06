package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"webslice/internal/service"
)

// NewHandler returns the coordinator's HTTP API: the websliced API of
// service.NewHandler, served over the coordinator with the same shapes, so
// the webslice client talks to a coordinator exactly as to a worker, plus
// two coordinator-only routes:
//
//	POST   /batch            scatter a JSON array of Specs      -> 202 {ids}
//	GET    /cluster          topology: members, ring, self      -> 200
//
// A worker's refusal of a routed job (a 429 with its Retry-After, a 400, a
// 413) is the coordinator's answer too.
func NewHandler(c *Coordinator) http.Handler {
	mux := service.NewHandler(c)

	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var specs []service.Spec
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&specs); err != nil {
			service.WriteError(w, fmt.Errorf("bad batch: %w", err))
			return
		}
		if len(specs) == 0 {
			service.WriteError(w, errors.New("empty batch"))
			return
		}
		ids, err := c.Scatter(specs)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusAccepted, map[string][]string{"ids": ids})
	})

	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{
			"self":      c.cfg.Self,
			"ring_size": c.Ring().Len(),
			"ring":      c.Ring().Nodes(),
			"members":   c.Members(),
		})
	})

	return mux
}
