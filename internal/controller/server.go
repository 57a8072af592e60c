package controller

import (
	"errors"
	"io"
	"net"
	"sync"

	"dpiservice/internal/ctlproto"
)

// Server exposes a Controller over the ctlproto wire protocol: it
// accepts connections from middleboxes (registration, pattern
// management), from the TSA (policy chains), and from DPI service
// instances (hello/init, telemetry).
type Server struct {
	ctl *Controller
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup

	// logFn receives diagnostic messages; nil keeps the library quiet.
	logFn func(format string, args ...any)
}

// Serve starts accepting control connections on ln; it returns
// immediately. logf, when non-nil, receives diagnostic messages (cmd/
// daemons pass log.Printf); it must be fixed at start so the accept
// loop never races a later assignment. Close stops the server.
func Serve(ctl *Controller, ln net.Listener, logf func(format string, args ...any)) *Server {
	s := &Server{ctl: ctl, ln: ln, conns: make(map[net.Conn]bool), logFn: logf}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// logf forwards to the configured sink, if any.
func (s *Server) logf(format string, args ...any) {
	if s.logFn != nil {
		s.logFn(format, args...)
	}
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server and closes all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		env, err := ctlproto.ReadMsg(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.logf("controller: read: %v", err)
			}
			return
		}
		if err := s.dispatch(conn, env); err != nil {
			s.logf("controller: %s (seq %d): %v", env.Type, env.Seq, err)
			if werr := ctlproto.WriteMsg(conn, ctlproto.TypeError, env.Seq,
				ctlproto.Error{AckSeq: env.Seq, Reason: err.Error()}); werr != nil {
				return
			}
		}
	}
}

func (s *Server) dispatch(conn net.Conn, env *ctlproto.Envelope) error {
	switch env.Type {
	case ctlproto.TypeRegister:
		var reg ctlproto.Register
		if err := env.Decode(&reg); err != nil {
			return err
		}
		set, err := s.ctl.Register(reg)
		if err != nil {
			return err
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeRegisterAck, env.Seq,
			ctlproto.RegisterAck{
				MboxID: reg.MboxID, Set: set,
				WireToken: s.ctl.IssueWireToken(reg.MboxID),
				WireKey:   s.ctl.WireKey(),
			})

	case ctlproto.TypeDeregister:
		var msg ctlproto.Deregister
		if err := env.Decode(&msg); err != nil {
			return err
		}
		if err := s.ctl.Deregister(msg.MboxID); err != nil {
			return err
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeAck, env.Seq, ctlproto.Ack{AckSeq: env.Seq})

	case ctlproto.TypeAddPatterns:
		var msg ctlproto.AddPatterns
		if err := env.Decode(&msg); err != nil {
			return err
		}
		if err := s.ctl.AddPatterns(msg.MboxID, msg.Patterns); err != nil {
			return err
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeAck, env.Seq, ctlproto.Ack{AckSeq: env.Seq})

	case ctlproto.TypeRemovePatterns:
		var msg ctlproto.RemovePatterns
		if err := env.Decode(&msg); err != nil {
			return err
		}
		if err := s.ctl.RemovePatterns(msg.MboxID, msg.RuleIDs); err != nil {
			return err
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeAck, env.Seq, ctlproto.Ack{AckSeq: env.Seq})

	case ctlproto.TypePolicyChains:
		var msg ctlproto.PolicyChains
		if err := env.Decode(&msg); err != nil {
			return err
		}
		// The TSA reports chains; tags it supplies are advisory — the
		// controller is the tag authority (Section 4.1).
		var defs []ctlproto.ChainDef
		for _, ch := range msg.Chains {
			tag, err := s.ctl.DefineChain(ch.Members)
			if err != nil {
				return err
			}
			defs = append(defs, ctlproto.ChainDef{Tag: tag, Members: ch.Members})
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypePolicyChains, env.Seq,
			ctlproto.PolicyChains{Chains: defs})

	case ctlproto.TypeInstanceHello:
		var hello ctlproto.InstanceHello
		if err := env.Decode(&hello); err != nil {
			return err
		}
		var tags []uint16
		if len(hello.Chains) > 0 {
			tags = hello.Chains
		}
		head, section, err := s.ctl.initBody(hello.InstanceID, tags, hello.Dedicated)
		if err != nil {
			return err
		}
		s.ctl.AddInstance(hello.InstanceID, tags, hello.Dedicated)
		return ctlproto.WriteBinary(conn, ctlproto.TypeInstanceInit, env.Seq, head, section)

	case ctlproto.TypeLease:
		var lease ctlproto.Lease
		if err := env.Decode(&lease); err != nil {
			return err
		}
		if err := s.ctl.RenewLease(lease.InstanceID); err != nil {
			return err
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeLeaseAck, env.Seq, ctlproto.LeaseAck{
			InstanceID: lease.InstanceID,
			TTLMillis:  s.ctl.LeaseTTL().Milliseconds(),
			Version:    s.ctl.Version(),
		})

	case ctlproto.TypeSession:
		var req ctlproto.Session
		if err := env.Decode(&req); err != nil {
			return err
		}
		if req.PeerID == "" {
			return errors.New("session request with empty peer ID")
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeSessionAck, env.Seq,
			ctlproto.SessionAck{PeerID: req.PeerID, WireToken: s.ctl.IssueWireToken(req.PeerID)})

	case ctlproto.TypeTelemetry:
		var tel ctlproto.Telemetry
		if err := env.Decode(&tel); err != nil {
			return err
		}
		if err := s.ctl.ReportTelemetry(tel); err != nil {
			return err
		}
		return ctlproto.WriteMsg(conn, ctlproto.TypeAck, env.Seq, ctlproto.Ack{AckSeq: env.Seq})

	default:
		return errors.New("unsupported message type " + string(env.Type))
	}
}
