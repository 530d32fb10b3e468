// Scene subcommands: homectl runs declarative compositions from outside
// the federation process, resolving services through the repository,
// calling them over SOAP, and long-polling every gateway's event hub for
// triggers.
package main

import (
	"context"
	"fmt"
	"log"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"homeconnect/internal/core/events"
	"homeconnect/internal/core/scene"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
)

func sceneUsage() {
	fmt.Fprintf(os.Stderr, `usage: homectl [-vsr URL] scene <command>

commands:
  load <file>                    validate a scene file, print canonical XML
  list <file>                    list the scenes in a file
  run <file> <scene> [k=v ...]   fire one scene now; k=v become trigger payload
  status <file> [duration]       arm every scene's triggers for the duration
                                 (default 30s), then print run statistics
`)
	os.Exit(2)
}

func sceneCmd(ctx context.Context, repo *vsr.VSR, args []string) {
	if len(args) < 2 {
		sceneUsage()
	}
	switch args[0] {
	case "load":
		sceneLoad(args[1])
	case "list":
		sceneList(args[1])
	case "run":
		if len(args) < 3 {
			sceneUsage()
		}
		sceneRun(ctx, repo, args[1], args[2], args[3:])
	case "status":
		d := 30 * time.Second
		if len(args) >= 3 {
			var err error
			if d, err = time.ParseDuration(args[2]); err != nil {
				log.Fatalf("bad duration %q: %v", args[2], err)
			}
		}
		sceneStatus(ctx, repo, args[1], d)
	default:
		sceneUsage()
	}
}

func readScenes(path string) []*scene.Scene {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	scs, err := scene.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	return scs
}

func sceneLoad(path string) {
	scs := readScenes(path)
	os.Stdout.Write(scene.Encode(scs))
	fmt.Fprintf(os.Stderr, "%d scene(s) valid\n", len(scs))
}

func sceneList(path string) {
	scs := readScenes(path)
	fmt.Printf("%-20s %-9s %-6s %s\n", "SCENE", "TRIGGERS", "STEPS", "DOC")
	for _, s := range scs {
		fmt.Printf("%-20s %-9d %-6d %s\n", s.Name, len(s.Triggers), len(s.Steps), s.Doc)
	}
}

// soapCaller resolves scene calls through the repository and invokes them
// over SOAP — the same path as `homectl call`.
type soapCaller struct{ repo *vsr.VSR }

func (c soapCaller) Call(ctx context.Context, id, op string, args []service.Value) (service.Value, error) {
	r, err := c.repo.Lookup(ctx, id)
	if err != nil {
		return service.Value{}, err
	}
	opSpec, ok := r.Desc.Interface.Operation(op)
	if !ok {
		return service.Value{}, fmt.Errorf("%s.%s: %w", id, op, service.ErrNoSuchOperation)
	}
	if err := service.ValidateArgs(opSpec, args); err != nil {
		return service.Value{}, err
	}
	call := soap.Call{Namespace: vsg.Namespace(id), Operation: op}
	for i, p := range opSpec.Inputs {
		call.Args = append(call.Args, soap.Arg{Name: p.Name, Value: args[i]})
	}
	client := &soap.Client{URL: r.Endpoint, Dialer: dialer}
	return client.Call(ctx, vsg.Namespace(id)+"#"+op, call)
}

// attachSources long-polls each registered network's gateway hub so event
// triggers and publish steps work from outside the federation process.
// Networks are discovered from the repository's service registrations.
func attachSources(ctx context.Context, repo *vsr.VSR, eng *scene.Engine) []*scene.PollSource {
	remotes, err := repo.Find(ctx, vsr.Query{})
	if err != nil {
		log.Fatalf("discover networks: %v", err)
	}
	var sources []*scene.PollSource
	seen := make(map[string]bool)
	for _, r := range remotes {
		network := r.Desc.Context[service.CtxNetwork]
		if network == "" || seen[network] {
			continue
		}
		u, err := url.Parse(r.Endpoint)
		if err != nil {
			continue
		}
		seen[network] = true
		src := scene.NewPollSource(&events.Client{BaseURL: u.Scheme + "://" + u.Host + "/events", HTTP: dialer.HTTPClient()})
		eng.AddSource(network, src)
		sources = append(sources, src)
	}
	return sources
}

func sceneRun(ctx context.Context, repo *vsr.VSR, path, name string, kvs []string) {
	eng := scene.NewEngine(soapCaller{repo: repo})
	defer eng.Close()
	sources := attachSources(ctx, repo, eng)
	defer func() {
		for _, s := range sources {
			s.Close()
		}
	}()
	for _, sc := range readScenes(path) {
		if err := eng.Load(sc); err != nil {
			log.Fatal(err)
		}
	}
	trigger := service.Event{Source: "homectl", Topic: "manual", Payload: make(map[string]service.Value)}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			log.Fatalf("bad payload argument %q (want k=v)", kv)
		}
		trigger.Payload[k] = service.StringValue(v)
	}
	rec, err := eng.Run(ctx, name, trigger)
	if err != nil {
		log.Fatal(err)
	}
	for _, sr := range rec.Steps {
		out := sr.Result.Text()
		if sr.Result.IsVoid() {
			out = "ok"
		}
		if sr.Err != nil {
			out = "error: " + sr.Err.Error()
		}
		fmt.Printf("  step %-16s %-8s attempts=%d %s\n", sr.Name, sr.Kind, sr.Attempts, out)
	}
	fmt.Printf("scene %s: %s in %v\n", rec.Scene, rec.Outcome, rec.Latency.Round(time.Millisecond))
	if rec.Err != nil {
		log.Fatal(rec.Err)
	}
}

func sceneStatus(ctx context.Context, repo *vsr.VSR, path string, d time.Duration) {
	eng := scene.NewEngine(soapCaller{repo: repo})
	defer eng.Close()
	sources := attachSources(ctx, repo, eng)
	defer func() {
		for _, s := range sources {
			s.Close()
		}
	}()
	for _, sc := range readScenes(path) {
		if err := eng.Load(sc); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.StartAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scenes armed for %v...\n", d)
	time.Sleep(d)
	statuses := eng.List()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Name < statuses[j].Name })
	fmt.Printf("%-20s %-8s %-6s %-10s %-8s %-10s %s\n",
		"SCENE", "RUNS", "OK", "GUARDED", "FAILED", "MEAN", "LAST")
	for _, st := range statuses {
		mean := time.Duration(0)
		if st.Stats.Runs > 0 {
			mean = st.Stats.TotalLatency / time.Duration(st.Stats.Runs)
		}
		last := st.Stats.LastOutcome
		if last == "" {
			last = "-"
		}
		if st.Stats.LastError != "" {
			last += " (" + st.Stats.LastError + ")"
		}
		fmt.Printf("%-20s %-8d %-6d %-10d %-8d %-10v %s\n",
			st.Name, st.Stats.Runs, st.Stats.Completed, st.Stats.Guarded,
			st.Stats.Failed, mean.Round(time.Millisecond), last)
	}
}
