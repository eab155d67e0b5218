package core

import (
	"crypto/cipher"
	"fmt"
	"sync"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/client"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/netlist"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/simtime"
	"salus/internal/smapp"
	"salus/internal/smlogic"
	"salus/internal/trace"
	"salus/internal/userapp"
)

// SystemConfig describes one cloud FPGA instance deployment.
type SystemConfig struct {
	Profile netlist.DeviceProfile
	DNA     fpga.DNA
	Kernel  accel.Kernel
	Seed    int64 // developer's place-and-route seed
	Timing  Timing

	// UserProgram is the data owner's enclave program (measured into the
	// user enclave identity).
	UserProgram []byte

	// Interceptor installs a compromised shell (attack experiments).
	Interceptor shell.Interceptor
	// DeviceOpts tweak manufacturing (e.g. legacy readback-enabled ICAP).
	DeviceOpts []fpga.Option

	// ProtectedMemory selects the CL variant with the memory integrity
	// tree at its DRAM interface (§3.1 attack-2 defence).
	ProtectedMemory bool

	// SessionRekeyEvery bounds how many jobs reuse one cached data-key
	// session before the host rotates the register-channel key and
	// re-exchanges the data key/IV. Zero selects DefaultSessionRekeyEvery.
	SessionRekeyEvery int

	// KeyService overrides how the SM enclave reaches the manufacturer's
	// key distribution (e.g. an RPC client from internal/remote). Nil means
	// the in-process service.
	KeyService smapp.KeyService
	// Manufacturer supplies an existing manufacturer service (e.g. one
	// already serving RPC) instead of creating a fresh one.
	Manufacturer *manufacturer.Service
	// Device reuses an already-manufactured FPGA (instance recycling /
	// multi-tenant multiplexing). Requires Manufacturer — the service that
	// holds this device's key.
	Device *fpga.Device
	// Partition selects which reconfigurable partition of the device this
	// system deploys into (§4.7 multi-RP extension). Every channel this
	// system opens — deployment, secure register traffic, DMA — is
	// addressed to this partition, so co-resident systems on one die share
	// nothing but the silicon: each has its own sealed channel, monotonic
	// counter, and key epoch. Default 0; must be < Device.Partitions().
	Partition int

	// HostPlatform reuses an existing TEE host platform instead of creating
	// a fresh one. Fleet members on one physical host must share a platform:
	// SGX local attestation (EREPORT/EGETKEY) only verifies across enclaves
	// of the same platform, and the fleet's sibling data-key hand-off
	// (System.AdoptDataKeyFrom) depends on it.
	HostPlatform *sgx.Platform
	// Prepared shares a fleet-wide manipulated-bitstream cache between SM
	// enclaves (see smapp.PreparedCache). Nil disables caching.
	Prepared *smapp.PreparedCache
	// Quotes shares one manufacturer quote exchange between SM enclaves of
	// the same measurement (see smapp.QuotePool). Nil disables pooling.
	Quotes *smapp.QuotePool
	// Package deploys an already developed CL instead of running the
	// development flow for this system, so a fleet builds its CL once. It is
	// shared, never modified, and must have been developed for Kernel (and
	// for ProtectedMemory's CL variant). Nil develops one at Seed.
	Package *CLPackage
}

// System is an assembled deployment: every party of the threat model plus
// the shared virtual clock and boot trace.
type System struct {
	Manufacturer *manufacturer.Service
	HostPlatform *sgx.Platform
	Device       *fpga.Device
	Shell        *shell.Shell
	SM           *smapp.SMApp
	User         *userapp.UserApp
	Package      *CLPackage

	Clock  *simtime.Clock
	Trace  *trace.Log
	Timing Timing

	jobMu     sync.Mutex
	phase     Phase // the trust phase (see Phase); guarded by jobMu
	partition int

	// Cached per-session job state (guarded by jobMu): once the data key
	// and a base IV are exchanged over the secure register channel, repeat
	// jobs derive per-job IVs from sessJobs instead of re-running the
	// 4-write exchange. sessBlock is sessKey's AES schedule, expanded once
	// per epoch for every CTR stream the host runs in it. rekeyEvery bounds
	// the epoch length.
	sessKey    []byte
	sessBlock  cipher.Block
	sessIV     []byte
	sessJobs   uint32
	rekeyEvery int

	// Job-path scratch (guarded by jobMu), reused by every call so the
	// steady-state path allocates nothing: the register program and result
	// vectors, and the workloads, chunks and planned jobs of the call in
	// flight, which clearScratch zeroes before the call returns.
	batchTxns []channel.RegTxn
	batchRes  []channel.RegResult
	ws        []accel.Workload
	chunks    []batchChunk
	plan      []batchJob

	// burst is the DMA burst scratch every input frame is built in (see
	// writeInput), regFrame the scratch every DMA read request is built in
	// (see dmaRead), and plain the scratch sealed inputs are opened into
	// (see runSealedLocked); all guarded by jobMu.
	burst    []byte
	regFrame []byte
	plain    []byte
}

// NewSystem manufactures the device, provisions the TEE host, develops the
// CL, and deploys both enclave applications (Figure 3 ①). No protocol has
// run yet; call SecureBoot.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("core: no kernel configured")
	}
	if cfg.DNA == "" {
		cfg.DNA = "A58275817"
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = netlist.TestDevice
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = FastTiming()
	}
	if cfg.UserProgram == nil {
		cfg.UserProgram = []byte("data owner program v1")
	}

	mfr := cfg.Manufacturer
	if mfr == nil {
		var err error
		mfr, err = manufacturer.New()
		if err != nil {
			return nil, err
		}
	}
	dev := cfg.Device
	if dev == nil {
		var err error
		dev, err = mfr.ManufactureDevice(cfg.Profile, cfg.DNA, cfg.DeviceOpts...)
		if err != nil {
			return nil, err
		}
	} else if cfg.Manufacturer == nil {
		return nil, fmt.Errorf("core: reusing a device requires its manufacturer")
	} else if dev.Profile().Name != cfg.Profile.Name {
		return nil, fmt.Errorf("core: device profile %s does not match config %s", dev.Profile().Name, cfg.Profile.Name)
	}
	if cfg.Partition < 0 || cfg.Partition >= dev.Partitions() {
		return nil, fmt.Errorf("core: partition %d out of range, device %s has %d", cfg.Partition, dev.DNA(), dev.Partitions())
	}
	host := cfg.HostPlatform
	if host == nil {
		var err error
		host, err = sgx.NewPlatform(mfr.Authority())
		if err != nil {
			return nil, err
		}
	}
	logicID := smlogic.LogicID(cfg.Kernel)
	if cfg.ProtectedMemory {
		logicID = smlogic.ProtectedLogicID(cfg.Kernel)
	}
	pkg := cfg.Package
	if pkg == nil {
		var err error
		if pkg, err = developCL(cfg.Kernel, cfg.Profile, cfg.Seed, logicID); err != nil {
			return nil, err
		}
	} else if pkg.KernelName != cfg.Kernel.Name() || pkg.LogicID != logicID {
		return nil, fmt.Errorf("core: package %s (%s) does not deploy kernel %s as %s",
			pkg.DesignName, pkg.LogicID, cfg.Kernel.Name(), logicID)
	}

	clock := simtime.NewClock()
	tr := trace.New()
	shOpts := []shell.Option{shell.WithTiming(clock, cfg.Timing.PCIe)}
	if cfg.Interceptor != nil {
		shOpts = append(shOpts, shell.WithInterceptor(cfg.Interceptor))
	}
	sh := shell.New(dev, shOpts...)

	var keySvc smapp.KeyService = mfr
	if cfg.KeyService != nil {
		keySvc = cfg.KeyService
	}
	sm, err := smapp.New(smapp.Config{
		Platform:         host,
		Manufacturer:     keySvc,
		Shell:            sh,
		Partition:        cfg.Partition,
		Clock:            clock,
		Trace:            tr,
		ManufacturerLink: cfg.Timing.IntraCloud,
		EnclaveSlowdown:  cfg.Timing.EnclaveSlowdown,
		ToolSlowdown:     cfg.Timing.ToolSlowdown,
		QuoteGen:         cfg.Timing.SMQuoteGen,
		QuoteVerify:      cfg.Timing.SMQuoteVerify,
		Prepared:         cfg.Prepared,
		Quotes:           cfg.Quotes,
	})
	if err != nil {
		return nil, err
	}
	mfr.TrustSMEnclave(sm.Measurement())

	user, err := userapp.New(userapp.Config{
		Platform:    host,
		UserProgram: cfg.UserProgram,
		SM:          sm,
		Shell:       sh,
		Partition:   cfg.Partition,
		Clock:       clock,
		Trace:       tr,
		Slowdown:    cfg.Timing.EnclaveSlowdown,
	})
	if err != nil {
		return nil, err
	}

	rekeyEvery := cfg.SessionRekeyEvery
	if rekeyEvery <= 0 {
		rekeyEvery = DefaultSessionRekeyEvery
	}
	return &System{
		Manufacturer: mfr,
		HostPlatform: host,
		Device:       dev,
		Shell:        sh,
		SM:           sm,
		User:         user,
		Package:      pkg,
		Clock:        clock,
		Trace:        tr,
		Timing:       cfg.Timing,
		rekeyEvery:   rekeyEvery,
		phase:        PhaseSpawned,
		partition:    cfg.Partition,
	}, nil
}

// Partition returns the reconfigurable partition index this system deploys
// into and addresses all of its channel traffic to.
func (s *System) Partition() int { return s.partition }

// NewPartitionSystems manufactures ONE device exposing one reconfigurable
// partition per entry of kernels and assembles one System per partition
// around it — the §4.7 multi-RP model: partition i deploys kernels[i] with
// a full job path of its own. The systems share the die (and the template's
// manufacturer, host platform, and boot caches) but nothing else: each has
// its own SM and user enclave pair, its own sealed register channel with an
// independent monotonic counter, and its own data-key epoch, so co-resident
// tenants cannot observe or replay each other's traffic. The template's
// Device must be nil and its Partition zero; its DNA names the die and its
// Kernel is ignored.
func NewPartitionSystems(template SystemConfig, kernels []accel.Kernel) ([]*System, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("core: no kernels, need one per partition")
	}
	if template.Device != nil {
		return nil, fmt.Errorf("core: NewPartitionSystems manufactures its own device; Device must be nil")
	}
	if template.Partition != 0 {
		return nil, fmt.Errorf("core: NewPartitionSystems assigns partitions; Partition must be 0")
	}
	if template.Profile.Name == "" {
		template.Profile = netlist.TestDevice
	}
	mfr := template.Manufacturer
	if mfr == nil {
		var err error
		mfr, err = manufacturer.New()
		if err != nil {
			return nil, err
		}
		template.Manufacturer = mfr
	}
	if template.DNA == "" {
		template.DNA = "A58275817"
	}
	opts := append([]fpga.Option{fpga.WithPartitions(len(kernels))}, template.DeviceOpts...)
	dev, err := mfr.ManufactureDevice(template.Profile, template.DNA, opts...)
	if err != nil {
		return nil, err
	}
	// Co-resident systems must share a host platform: fleet sibling key
	// hand-offs ride SGX local attestation, which only verifies within one.
	if template.HostPlatform == nil {
		host, err := sgx.NewPlatform(mfr.Authority())
		if err != nil {
			return nil, err
		}
		template.HostPlatform = host
	}
	systems := make([]*System, len(kernels))
	for i, k := range kernels {
		cfg := template
		cfg.Device = dev
		cfg.Partition = i
		cfg.Kernel = k
		sys, err := NewSystem(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: partition %d of %s: %w", i, template.DNA, err)
		}
		systems[i] = sys
	}
	return systems, nil
}

// Expectations returns the data owner's pinned identities for this
// deployment — everything the client needs to verify the cascaded
// attestation from its trusted environment.
func (s *System) Expectations() client.Expectations {
	return client.Expectations{
		Root:        s.Manufacturer.Root(),
		UserEnclave: s.User.Measurement(),
		SMEnclave:   s.SM.Measurement(),
		Digest:      s.Package.Digest,
		DNA:         s.Device.DNA(),
	}
}

// BootReport is the outcome of a secure boot.
type BootReport struct {
	Quote   sgx.Quote      // the deferred RA response
	Nonce   []byte         // the client's RA challenge
	Result  smapp.CLResult // what the SM enclave reported
	Total   time.Duration  // virtual boot time (Figure 9 total)
	DataPub []byte         // enclave key the data key was sealed to
}

// SecureBoot runs the full flow of Figure 3 (②–⑧) plus the data-key
// provisioning a successful attestation unlocks:
//
//	② the data owner remote-attests the platform (deferred — the quote
//	   arrives at the end), sending the bitstream metadata;
//	③ the user enclave locally attests the SM enclave and forwards H/Loc;
//	④ the SM enclave fetches Key_device from the manufacturer;
//	⑤⑥ the SM enclave verifies, manipulates, encrypts, and deploys the CL;
//	⑦ the SM enclave attests the CL over the shell;
//	⑧ the user enclave emits the chained quote; the client verifies it and
//	   provisions the data key.
//
// An attack anywhere in the chain surfaces as an error from the step whose
// guarantees it violates, and no data key is ever provisioned. The data key
// is drawn fresh and lives only in the user enclave (User.DataKey); an
// owner that keys several systems alike uses sched.BootSharedParallel.
func (s *System) SecureBoot() (*BootReport, error) {
	span := s.Clock.StartSpan()
	ver := client.New(s.Expectations())
	nonce := ver.NewNonce()

	quote, err := s.BootAndQuote(nonce)
	if err != nil {
		return nil, err
	}

	// Client-side verification of the deferred quote.
	dataPub, err := s.VerifyQuote(ver, nonce, quote)
	if err != nil {
		return nil, err
	}

	// The platform is attested end to end: provision the data key.
	dataKey := cryptoutil.RandomKey(16)
	err = s.ProvisionKey(dataPub, dataKey)
	clear(dataKey)
	if err != nil {
		return nil, err
	}

	res, err := s.User.CLResult()
	if err != nil {
		return nil, err
	}
	return &BootReport{
		Quote:   quote,
		Nonce:   nonce,
		Result:  res,
		Total:   span.Elapsed(),
		DataPub: dataPub,
	}, nil
}

// BootAndQuote is the instance side of the boot: it runs Figure 3 ②–⑧ up
// to and including the deferred quote bound to the data owner's nonce, but
// performs no client-side verification — a *remote* data owner does that
// themselves (see internal/remote) and then calls FinishProvision. A failed
// step leaves the system spawned, so the boot can be run again.
func (s *System) BootAndQuote(nonce []byte) (sgx.Quote, error) {
	var quote sgx.Quote
	err := s.attest(func() (err error) {
		// ② RA request + metadata travel over the WAN.
		s.chargeWAN(func() { s.Timing.WAN.Send(s.Clock, 256+len(s.Package.Loc.Path)) })
		if err := s.attestCL(); err != nil {
			return err
		}
		// ⑧ Deferred RA response.
		if quote, err = s.User.GenerateRAResponse(nonce, s.Timing.UserQuoteGen); err != nil {
			return fmt.Errorf("core: step ⑧ (RA response): %w", err)
		}
		return nil
	})
	if err != nil {
		return sgx.Quote{}, err
	}
	return quote, nil
}

// BootSibling is the instance side of a board that takes the data key from
// a sibling enclave instead of the owner: Figure 3 ③–⑦, with no RA request
// to receive and no quote or provisioning key to mint, since no owner reads
// them. The hand-off (AdoptDataKeyFrom, or BeginAdoptDataKey across a wire)
// completes the boot.
func (s *System) BootSibling() error { return s.attest(s.attestCL) }

// attest runs a spawned system's boot steps and moves it to attested; a
// failed step leaves it spawned.
func (s *System) attest(steps func() error) error {
	if err := s.check(EventAttest); err != nil {
		return err
	}
	if err := steps(); err != nil {
		return err
	}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.moveLocked(EventAttest)
}

// attestCL runs Figure 3 ③–⑦: local attestation, key distribution, the
// CL's deployment and its attestation, whose result the user enclave
// collects.
func (s *System) attestCL() error {
	// ③ Local attestation and metadata forwarding.
	if err := s.User.LocalAttestSM(); err != nil {
		return fmt.Errorf("core: step ③ (local attestation): %w", err)
	}
	if err := s.User.ForwardMetadata(smapp.Metadata{Digest: s.Package.Digest, Loc: s.Package.Loc}); err != nil {
		return fmt.Errorf("core: step ③ (metadata): %w", err)
	}

	// ④ Device key distribution.
	if err := s.SM.FetchDeviceKey(); err != nil {
		return fmt.Errorf("core: step ④ (key distribution): %w", err)
	}

	// ⑤⑥ Verify, inject RoT, encrypt, deploy. The CSP's storage serves the
	// developer-published bitstream; a hostile CSP may serve anything — the
	// digest check catches it.
	if err := s.SM.DeployCL(s.Package.Encoded); err != nil {
		return fmt.Errorf("core: step ⑤⑥ (deployment): %w", err)
	}
	// On a physical board the host now blocks until the ICAP finishes
	// programming the partition; model that idle wait for real so parallel
	// fleet boot overlap is measurable (see Timing.RealBootLatency).
	if s.Timing.RealBootLatency > 0 {
		time.Sleep(s.Timing.RealBootLatency)
	}

	// ⑦ CL attestation.
	if err := s.SM.AttestCL(); err != nil {
		return fmt.Errorf("core: step ⑦ (CL attestation): %w", err)
	}
	if err := s.User.CollectCLResult(); err != nil {
		return fmt.Errorf("core: step ⑦ (result collection): %w", err)
	}
	return nil
}

// FinishProvision delivers the data owner's sealed data key to the user
// enclave, completing the boot. Only possible after BootAndQuote — the
// enclave's provisioning key exists only once the chain is attested.
func (s *System) FinishProvision(senderPub, sealed []byte) error {
	return s.takeKey("data key provisioning", func() error { return s.User.ReceiveDataKey(senderPub, sealed) })
}

// takeKey runs take, the user enclave's acceptance of the data key, and
// moves the system to keyed, all under jobMu; what names take's failure.
func (s *System) takeKey(what string, take func() error) error {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	// A boot walked one enclave call at a time, as the benchmark's per-step
	// timing walks it, arrives here without BootAndQuote: the enclave's
	// attested CL result is the ⑦ the host did not see.
	if res, err := s.User.CLResult(); s.phase == PhaseSpawned && err == nil && res.Attested {
		s.phase = PhaseAttested
	}
	if _, err := s.phase.Next(EventKey); err != nil {
		return err
	}
	if err := take(); err != nil {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	return s.moveLocked(EventKey)
}

// VerifyQuote runs the data owner's verification of the deferred quote,
// charging the WAN round trip and the client's DCAP verification to this
// system's clock, and returns the enclave key the data key must be sealed
// to. Split out of SecureBoot so a fleet booter can run the
// instance side of many boots first and only provision once every chain
// verified (sched.BootSharedParallel's atomicity).
func (s *System) VerifyQuote(ver *client.Verifier, nonce []byte, quote sgx.Quote) ([]byte, error) {
	s.chargeWAN(func() { s.Timing.WAN.RoundTrip(s.Clock, 2048, 256) })
	s.Clock.Advance(s.Timing.UserQuoteVerify)
	s.Trace.Record(trace.PhaseUserQuoteVerify, s.Timing.UserQuoteVerify)
	dataPub, err := ver.VerifyRAResponse(nonce, quote)
	if err != nil {
		return nil, fmt.Errorf("core: step ⑧ (client verification): %w", err)
	}
	return dataPub, nil
}

// ProvisionKey seals the 16-byte data key to the enclave key from a
// verified RA response and delivers it, completing the boot. It is the
// owner-side tail of SecureBoot, split out so an owner that verified the
// quotes itself (sched.BootSharedParallel) can provision one key to many
// systems. The system keeps no copy: only the user enclave holds the key.
func (s *System) ProvisionKey(dataPub, dataKey []byte) error {
	if len(dataKey) != 16 {
		return fmt.Errorf("core: data key must be 16 bytes, got %d", len(dataKey))
	}
	senderPub, sealed, err := client.ProvisionDataKey(dataPub, dataKey)
	if err != nil {
		return err
	}
	s.chargeWAN(func() { s.Timing.WAN.Send(s.Clock, len(sealed)) })
	return s.FinishProvision(senderPub, sealed)
}

// AdoptDataKeyFrom completes a hot-added system's boot by transferring the
// data key from an already-provisioned sibling via the user enclaves' local
// attestation hand-off (userapp/share.go) instead of a client round trip.
// The recipient must have finished its instance-side boot (BootSibling) so
// its CL chain is attested; the donor enclave refuses unless the recipient
// runs the identical user program on the same platform and attested the
// CL digest the donor attested. As with ProvisionKey, only the enclaves
// ever hold the key.
func (s *System) AdoptDataKeyFrom(donor *System) error {
	if donor == nil {
		return errNotDonor
	}
	req, err := s.BeginAdoptDataKey(donor.User.Measurement())
	if err != nil {
		return err
	}
	grant, err := donor.ShareDataKey(req)
	if err != nil {
		return fmt.Errorf("core: adopt data key: %w", err)
	}
	return s.FinishAdoptDataKey(grant)
}

// errNotDonor refuses a hand-off from a system that holds no data key.
var errNotDonor = fmt.Errorf("core: donor system is not booted")

// ShareDataKey is the donor side of a sibling hand-off: the user enclave's
// sealed grant of the data key toward the recipient that req attests.
// Serialised against Reclaim, so a board that leaves the pool mid hand-off
// either grants before its key is zeroized or refuses.
func (s *System) ShareDataKey(req userapp.KeyRequest) (userapp.KeyGrant, error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if _, err := s.phase.Next(EventServe); err != nil {
		return userapp.KeyGrant{}, fmt.Errorf("%w: %w", errNotDonor, err)
	}
	return s.User.ShareDataKey(req)
}

// BeginAdoptDataKey is the recipient-side first half of AdoptDataKeyFrom,
// split out so the donor may live behind a wire boundary (the federation
// gateway's Federation.Handoff RPC): it emits the local-attestation key
// request to relay to the donor, which the user enclave binds to the CL
// digest it attested and refuses to make without one. donor is the measurement
// the request pins; a recipient that cannot see the donor enclave passes
// its own measurement, since the hand-off requires identical user programs
// anyway.
func (s *System) BeginAdoptDataKey(donor sgx.Measurement) (userapp.KeyRequest, error) {
	if err := s.check(EventKey); err != nil {
		return userapp.KeyRequest{}, err
	}
	req, err := s.User.RequestDataKey(donor)
	if err != nil {
		return userapp.KeyRequest{}, fmt.Errorf("core: adopt data key: %w", err)
	}
	return req, nil
}

// FinishAdoptDataKey is the recipient-side second half: it accepts the
// donor's sealed grant into the user enclave and completes the boot. The
// host never sees the key.
func (s *System) FinishAdoptDataKey(grant userapp.KeyGrant) error {
	return s.takeKey("adopt data key", func() error { return s.User.AcceptDataKey(grant) })
}

// Phase reports the system's trust phase.
func (s *System) Phase() Phase {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.phase
}

// Booted reports whether the boot (including data-key provisioning)
// completed.
func (s *System) Booted() bool { return s.Phase() == PhaseKeyed }

// check reports whether e is a legal move from the trust phase now.
func (s *System) check(e Event) error {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	_, err := s.phase.Next(e)
	return err
}

// moveLocked applies e to the trust phase; a refused move leaves it where
// it was. Callers hold jobMu.
func (s *System) moveLocked(e Event) (err error) {
	s.phase, err = s.phase.Next(e)
	return err
}

// Reclaim decommissions the system's tenancy: it zeroizes every copy of
// key material the deployment holds — the host's cached session key/IV,
// the user enclave's data key and attestation secrets, and
// the SM enclave's device/attestation/session keys — drops every job
// scratch the System owns (zeroing first the plaintext scratch and the
// register program and results, which carry an epoch's key words), and
// marks the system unbootable. An RP must be reclaimed after its tenant is
// drained and before the partition is re-placed to a new tenant: the next
// tenant boots a fresh System on the same (device, partition) pair, and
// nothing of the previous occupant survives to be replayed against it.
// Serialised against in-flight jobs; idempotent.
func (s *System) Reclaim() {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if s.moveLocked(EventReclaim) != nil {
		return // reclaimed already
	}
	clear(s.sessKey)
	clear(s.sessIV)
	s.invalidateSession()
	clear(s.plain[:cap(s.plain)])
	clear(s.batchTxns[:cap(s.batchTxns)])
	clear(s.batchRes[:cap(s.batchRes)])
	s.clearScratch()
	s.batchTxns, s.batchRes, s.burst, s.regFrame, s.plain = nil, nil, nil, nil, nil
	s.ws, s.chunks, s.plan = nil, nil, nil
	s.User.Zeroize()
	s.SM.Zeroize()
}

// Reclaimed reports whether Reclaim ran; a reclaimed system never serves
// again — re-placement builds a fresh System on the same partition.
func (s *System) Reclaimed() bool { return s.Phase() == PhaseReclaimed }

// poison fills a scratch frame the shell has given back with 0xA5 under
// -race, so an interceptor that kept a borrowed frame instead of copying it
// reads garbage; otherwise it does nothing.
func poison(frame []byte) {
	if raceEnabled {
		for i := range frame {
			frame[i] = 0xA5
		}
	}
}

// chargeWAN runs a clock-charging network operation and mirrors the charge
// into the trace's network phase, so the Figure 9 breakdown accounts for
// every virtual microsecond the clock accumulated.
func (s *System) chargeWAN(fn func()) {
	span := s.Clock.StartSpan()
	fn()
	s.Trace.Record(trace.PhaseNetwork, span.Elapsed())
}
