package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/sim"
)

// Create errors the server maps to HTTP statuses.
var (
	// ErrDraining rejects new sessions while the manager shuts down.
	ErrDraining = errors.New("session: manager is draining")
	// ErrTooManySessions rejects new sessions over the live cap.
	ErrTooManySessions = errors.New("session: too many live sessions")
	// ErrNotFound marks an unknown session id.
	ErrNotFound = errors.New("session: no such session")
)

// Defaults applied by the Manager when a knob is zero.
const (
	DefaultMaxSessions = 16
	DefaultSampleMS    = 500
	DefaultHeartbeatMS = 10000
)

// Config shapes a Manager. The zero value is usable: every field has a
// default.
type Config struct {
	// MaxSessions caps concurrently live (non-terminal) sessions.
	MaxSessions int
	// NowMS supplies wall-clock milliseconds; tests override it.
	NowMS func() int64
}

// Manager owns the server's live sessions: creation (materializing the
// run spec through the same vocabulary as jobs), lookup, stats, and
// drain. Terminal sessions stay listed until the process exits, like
// finished jobs.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	seq      int
	sessions map[string]*Session
	order    []*Session
	draining bool
	wg       sync.WaitGroup
}

// NewManager builds a Manager, applying defaults for zero fields.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.NowMS == nil {
		cfg.NowMS = func() int64 { return time.Now().UnixMilli() }
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*Session)}
}

// Create materializes the request's run spec and starts its simulation
// on a fresh goroutine. Sessions bypass the run scheduler entirely — a
// live stream is not content-addressable work, so there is no dedup, no
// cache, and no queue; the cap on live sessions is the backpressure.
func (m *Manager) Create(req api.SessionRequest) (*Session, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	cfg, alg, setups, err := experiment.MaterializeRun(req.RunRequest())
	if err != nil {
		return nil, err
	}
	if cfg.Lanes >= 2 {
		return nil, fmt.Errorf("session: lane-partitioned runs (lanes=%d) cannot stream", cfg.Lanes)
	}
	sampleMS := req.SampleMS
	if sampleMS == 0 {
		sampleMS = DefaultSampleMS
	}
	heartbeatMS := req.HeartbeatMS
	if heartbeatMS == 0 {
		heartbeatMS = DefaultHeartbeatMS
	}
	var minGap time.Duration
	if req.MaxRateHz > 0 {
		minGap = time.Duration(float64(time.Second) / req.MaxRateHz)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if live := m.liveLocked(); live >= m.cfg.MaxSessions {
		return nil, fmt.Errorf("%w: %d live, cap %d", ErrTooManySessions, live, m.cfg.MaxSessions)
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{
		ID:        fmt.Sprintf("sess-%d", m.seq),
		cfg:       cfg,
		alg:       alg,
		setups:    setups,
		every:     sim.Time(sampleMS) * sim.Millisecond,
		minGap:    minGap,
		heartbeat: time.Duration(heartbeatMS) * time.Millisecond,
		buffer:    req.Buffer,
		ctx:       ctx,
		cancel:    cancel,
		nowMS:     m.cfg.NowMS,
		done:      make(chan struct{}),
		state:     api.SessionRunning,
		algName:   req.Algorithm,
		createdMS: m.cfg.NowMS(),
	}
	m.sessions[s.ID] = s
	m.order = append(m.order, s)
	m.wg.Add(1)
	go s.run(&m.wg)
	return s, nil
}

func (m *Manager) liveLocked() int {
	live := 0
	for _, s := range m.order {
		s.mu.Lock()
		terminal := api.TerminalSessionState(s.state)
		s.mu.Unlock()
		if !terminal {
			live++
		}
	}
	return live
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// List returns every session in creation order.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Session(nil), m.order...)
}

// Stats aggregates session counts for GET /v1/stats.
func (m *Manager) Stats() api.SessionStats {
	var st api.SessionStats
	for _, s := range m.List() {
		info := s.Info()
		switch {
		case info.State == api.SessionPaused:
			st.Paused++
		case api.TerminalSessionState(info.State):
			st.Done++
		default:
			st.Active++
		}
		st.Subscribers += info.Subscribers
		st.Evictions += info.Evictions
	}
	return st
}

// DrainAndStop rejects new sessions, stops every live one (sessions may
// stream indefinitely under pacing, so drain cannot wait them out), and
// waits for their goroutines to exit or ctx to expire.
func (m *Manager) DrainAndStop(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	sessions := append([]*Session(nil), m.order...)
	m.mu.Unlock()
	for _, s := range sessions {
		s.Stop()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
