// Package content defines the workload description consumed by the
// simulated browser: the resources a site serves (HTML, CSS, JavaScript,
// images) and the user-interaction script of a browsing session. The four
// benchmark sites in internal/sites are built from these types.
package content

import "fmt"

// ResourceType classifies a fetched resource.
type ResourceType uint8

const (
	HTML ResourceType = iota
	CSS
	JS
	Image
)

func (t ResourceType) String() string {
	switch t {
	case HTML:
		return "html"
	case CSS:
		return "css"
	case JS:
		return "js"
	case Image:
		return "image"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Resource is one server-delivered file.
type Resource struct {
	URL  string
	Type ResourceType
	Body []byte
	// LatencyMs is the simulated network latency for this resource.
	LatencyMs int
	// W, H are intrinsic pixel dimensions for Image resources.
	W, H int
}

// Site is everything the simulated server knows about one website.
type Site struct {
	Name string
	URL  string
	// Resources by URL; the main document is Resources[URL].
	Resources map[string]*Resource
	// ViewportW/H define the device viewport (e.g. 1280x720 desktop,
	// 360x640 emulated mobile).
	ViewportW, ViewportH int
	// Session is the user-interaction script after load ("Load and Browse"
	// benchmarks); empty for load-only benchmarks.
	Session []Action
	// BrowseResources lists extra resources fetched during the browse
	// session (the paper's Table I notes Bing and Maps download more bytes
	// while browsing).
	BrowseResources []*Resource
}

// Get returns a resource by URL.
func (s *Site) Get(url string) (*Resource, bool) {
	r, ok := s.Resources[url]
	return r, ok
}

// Add registers a resource.
func (s *Site) Add(r *Resource) {
	if s.Resources == nil {
		s.Resources = make(map[string]*Resource)
	}
	s.Resources[r.URL] = r
}

// ActionKind enumerates user interactions.
type ActionKind uint8

const (
	// Scroll moves the viewport by DeltaY pixels (handled on the
	// compositor thread, like Chromium).
	Scroll ActionKind = iota
	// Click dispatches a click to the element with the given ID (forwarded
	// from the compositor to the main thread).
	Click
	// TypeText types text into the focused input, one key event per rune.
	TypeText
	// Wait is user think time with no input.
	Wait
)

func (k ActionKind) String() string {
	switch k {
	case Scroll:
		return "scroll"
	case Click:
		return "click"
	case TypeText:
		return "type"
	case Wait:
		return "wait"
	default:
		return fmt.Sprintf("action(%d)", uint8(k))
	}
}

// Action is one step of a browsing session.
type Action struct {
	Kind ActionKind
	// TargetID is the DOM id for Click.
	TargetID string
	// DeltaY is the scroll distance in pixels (positive = down).
	DeltaY int
	// Text is the typed string for TypeText.
	Text string
	// ThinkMs is user think time before the action.
	ThinkMs int
}
