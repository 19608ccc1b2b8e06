package cluster

import (
	"net/http"

	"webslice/internal/service"
)

// NewHandler returns the coordinator's HTTP API: the websliced API of
// service.NewHandler, served over the coordinator with the same shapes, so
// the webslice client talks to a coordinator exactly as to a worker, plus
// one coordinator-only route:
//
//	GET    /cluster          topology: members, ring, self      -> 200
//
// A worker's refusal of a routed job (a 429 with its Retry-After, a 400, a
// 413, or a 500 from a panic) is the coordinator's answer too.
func NewHandler(c *Coordinator) *service.Handler {
	h := service.NewHandler(c)
	h.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{
			"self":      c.cfg.Self,
			"ring_size": c.Ring().Len(),
			"ring":      c.Ring().Nodes(),
			"members":   c.Members(),
		})
	})
	return h
}
