// Async job subcommands against a running hsfsimd daemon:
//
//	hsfsim submit -server localhost:8080 -tenant alice -priority 5 circuit.qasm
//	hsfsim jobs   -server localhost:8080 [-tenant alice]
//	hsfsim status -server localhost:8080 job-0123456789abcdef
//	hsfsim watch  -server localhost:8080 job-0123456789abcdef
//	hsfsim result -server localhost:8080 -amplitudes 16 job-0123456789abcdef
//	hsfsim cancel -server localhost:8080 job-0123456789abcdef
//
// submit enqueues and returns immediately with a job ID; watch follows the
// job's SSE stream (progress ticks, then amplitudes) until it finishes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"net/http"
	"os"
	"strings"
	"time"

	"hsfsim/internal/jobs"
	"hsfsim/internal/server"
)

// jobsCLI dispatches one job subcommand. Flags are shared across commands;
// each ignores the ones it has no use for.
func jobsCLI(cmd string, args []string) {
	fs := flag.NewFlagSet("hsfsim "+cmd, flag.ExitOnError)
	var (
		srv      = fs.String("server", "127.0.0.1:8080", "hsfsimd address (host:port or URL)")
		tenant   = fs.String("tenant", "", "tenant name (empty: the default tenant)")
		priority = fs.Int("priority", 0, "scheduling priority; higher runs first")
		method   = fs.String("method", "joint", "schrodinger | standard | joint")
		cutPos   = fs.Int("cut", -1, "cut position (last lower-partition qubit); default n/2-1")
		ampsN    = fs.Int("amplitudes", 16, "number of amplitudes to print (0: all)")
		maxAmps  = fs.Int("max-amplitudes", 0, "number of amplitudes to compute (0: all)")
		strategy = fs.String("blocks", "cascade", "joint grouping: cascade | window")
		maxBlock = fs.Int("max-block-qubits", 0, "joint block qubit budget (0: default)")
		timeout  = fs.Duration("timeout", 0, "job execution timeout (0: none)")
		distrib  = fs.Bool("distribute", false, "run the job on the daemon's distributed worker fleet")
	)
	_ = fs.Parse(args)
	base := *srv
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	switch cmd {
	case "submit":
		if fs.NArg() != 1 {
			fail(fmt.Errorf("usage: hsfsim submit [flags] circuit.qasm"))
		}
		src, err := os.ReadFile(fs.Arg(0))
		fail(err)
		req := server.JobSubmitRequest{
			SimulateRequest: server.SimulateRequest{
				QASM:           string(src),
				Method:         *method,
				MaxAmplitudes:  *maxAmps,
				Strategy:       *strategy,
				MaxBlockQubits: *maxBlock,
				TimeoutMillis:  int(*timeout / time.Millisecond),
				Distribute:     *distrib,
			},
			Tenant:   *tenant,
			Priority: *priority,
		}
		if *cutPos >= 0 {
			req.CutPos = cutPos
		}
		var snap jobs.Snapshot
		doJSON(http.MethodPost, base+"/jobs", req, &snap)
		printSnapshot(&snap)
		fmt.Printf("follow with:  hsfsim watch -server %s %s\n", *srv, snap.ID)
	case "jobs":
		url := base + "/jobs"
		if *tenant != "" {
			url += "?tenant=" + *tenant
		}
		var list server.JobListResponse
		doJSON(http.MethodGet, url, nil, &list)
		if len(list.Jobs) == 0 {
			fmt.Println("no jobs")
			return
		}
		fmt.Printf("%-22s %-10s %-10s %4s %6s %s\n", "ID", "TENANT", "STATE", "PRIO", "BATCH", "CREATED")
		for _, s := range list.Jobs {
			fmt.Printf("%-22s %-10s %-10s %4d %6d %s\n",
				s.ID, s.Tenant, s.State, s.Priority, s.BatchSize, s.Created.Format(time.RFC3339))
		}
	case "status":
		var snap jobs.Snapshot
		doJSON(http.MethodGet, base+"/jobs/"+jobArg(fs), nil, &snap)
		printSnapshot(&snap)
	case "cancel":
		var snap jobs.Snapshot
		doJSON(http.MethodPost, base+"/jobs/"+jobArg(fs)+"/cancel", struct{}{}, &snap)
		printSnapshot(&snap)
	case "result":
		var resp server.SimulateResponse
		doJSON(http.MethodGet, base+"/jobs/"+jobArg(fs)+"/result", nil, &resp)
		fmt.Printf("method:          %s\n", resp.Method)
		fmt.Printf("qubits:          %d\n", resp.NumQubits)
		fmt.Printf("paths simulated: %d\n", resp.PathsSimulated)
		fmt.Printf("simulation:      %.3fms\n", resp.SimMs)
		n := *ampsN
		if n <= 0 || n > len(resp.Amplitudes) {
			n = len(resp.Amplitudes)
		}
		fmt.Println("amplitudes:")
		for i := 0; i < n; i++ {
			printAmp(resp.NumQubits, i, resp.Amplitudes[i].Re, resp.Amplitudes[i].Im)
		}
	case "watch":
		watchJob(base, jobArg(fs), *ampsN)
	default:
		fail(fmt.Errorf("unknown subcommand %q", cmd))
	}
}

func jobArg(fs interface {
	NArg() int
	Arg(int) string
}) string {
	if fs.NArg() != 1 {
		fail(fmt.Errorf("need exactly one job ID argument"))
	}
	return fs.Arg(0)
}

func printSnapshot(s *jobs.Snapshot) {
	fmt.Printf("job:          %s\n", s.ID)
	fmt.Printf("tenant:       %s (priority %d)\n", s.Tenant, s.Priority)
	fmt.Printf("state:        %s\n", s.State)
	if s.PathsTotal > 0 {
		fmt.Printf("progress:     %d/%d paths\n", s.PathsDone, s.PathsTotal)
	}
	if s.BatchSize > 1 || s.PlanShared {
		fmt.Printf("batch:        %d jobs, plan shared: %t\n", s.BatchSize, s.PlanShared)
	}
	if s.Resumed {
		fmt.Printf("resumed:      from a durable checkpoint\n")
	}
	if s.Error != "" {
		fmt.Printf("error:        %s\n", s.Error)
	}
}

func printAmp(numQubits, i int, re, im float64) {
	a := complex(re, im)
	fmt.Printf("  |%0*b>  % .6f%+.6fi   p=%.6f\n", numQubits, i, re, im, cmplx.Abs(a)*cmplx.Abs(a))
}

// watchJob follows a job's SSE stream: progress lines to stderr while it
// runs, then the streamed amplitude chunks and final state to stdout. Exits
// nonzero if the job fails.
func watchJob(base, id string, ampsN int) {
	// Seed the register width from a snapshot: a job that is already done
	// streams its amplitude chunks immediately, with no progress event to
	// carry num_qubits first.
	var seed jobs.Snapshot
	doJSON(http.MethodGet, base+"/jobs/"+id, nil, &seed)

	resp, err := http.Get(base + "/jobs/" + id + "/events")
	fail(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("watch %s: %s", id, httpErrBody(resp)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var event string
	var data []byte
	numQubits := seed.NumQubits
	printed := 0
	headerOut := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if event == "" {
				continue
			}
			switch event {
			case "progress":
				var s jobs.Snapshot
				if json.Unmarshal(data, &s) == nil {
					if s.NumQubits > 0 {
						numQubits = s.NumQubits
					}
					fmt.Fprintf(os.Stderr, "\rjob %s: %-8s %d/%d paths", s.ID, s.State, s.PathsDone, s.PathsTotal)
				}
			case "amplitudes":
				var ch server.AmplitudeChunk
				if json.Unmarshal(data, &ch) == nil {
					if !headerOut {
						fmt.Fprintln(os.Stderr)
						fmt.Println("amplitudes:")
						headerOut = true
					}
					for i, a := range ch.Amplitudes {
						if ampsN > 0 && printed >= ampsN {
							break
						}
						printAmp(numQubits, ch.Offset+i, a.Re, a.Im)
						printed++
					}
				}
			default: // terminal event, named after the final state
				var s jobs.Snapshot
				if json.Unmarshal(data, &s) == nil {
					if !headerOut {
						fmt.Fprintln(os.Stderr)
					}
					printSnapshot(&s)
					if s.State == jobs.StateFailed {
						os.Exit(1)
					}
				}
				return
			}
			event, data = "", nil
		}
	}
	fail(fmt.Errorf("watch %s: stream ended before the job finished", id))
}

// doJSON performs one JSON request/response round trip, exiting with the
// server's error envelope (and Retry-After hint, if any) on a 4xx/5xx.
func doJSON(method, url string, in, out any) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		fail(err)
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	fail(err)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	fail(err)
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		fail(fmt.Errorf("%s %s: %s", method, url, httpErrBody(resp)))
	}
	if out != nil {
		fail(json.NewDecoder(resp.Body).Decode(out))
	}
}

// httpErrBody renders an error response: the JSON envelope's message when
// present, with the Retry-After backoff hint appended for shed requests.
func httpErrBody(resp *http.Response) string {
	msg := resp.Status
	var eb struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb) == nil && eb.Error != "" {
		msg = fmt.Sprintf("%s: %s", resp.Status, eb.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		msg += fmt.Sprintf(" (retry after %ss)", ra)
	}
	return msg
}
