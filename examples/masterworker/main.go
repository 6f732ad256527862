// Masterworker runs a small bag-of-tasks grid application — the kind of
// performance-hungry, multi-site application the paper's introduction
// motivates — on top of the NetIbis IPL. A master in one site multicasts
// work descriptions to workers spread over firewalled and NAT'ed sites;
// each worker computes its share and sends the partial result back over
// a many-to-one receive port. All connectivity is established by the
// runtime (splicing, proxies or the relay, whatever each pair needs).
package main

import (
	"fmt"
	"log"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/ipl"
)

const (
	workers  = 3
	tasks    = 12
	taskSize = 1_000_000 // numbers summed per task
)

func main() {
	fabric := emunet.NewFabric(emunet.WithSeed(3))
	defer fabric.Close()
	dep, err := core.NewDeployment(fabric)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// Master in a firewalled site; workers behind firewalls and NAT.
	masterSite := dep.AddSite("master-site", emunet.SiteConfig{Firewall: emunet.Stateful})
	workerCfgs := []emunet.SiteConfig{
		{Firewall: emunet.Stateful},
		{Firewall: emunet.Stateful, NAT: emunet.CompliantNAT},
		{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT},
	}

	master, err := core.Join(dep.NodeConfig(masterSite.AddHost("master"), "bag", "master"))
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()

	taskType := ipl.PortType{Name: "tasks", Stack: "tcpblk"}
	resultType := ipl.PortType{Name: "results", Stack: "zip/tcpblk"}

	results, err := master.CreateReceivePort(resultType, "results")
	if err != nil {
		log.Fatal(err)
	}
	taskSend, err := master.CreateSendPort(taskType)
	if err != nil {
		log.Fatal(err)
	}

	// Start the workers; each creates its task inbox, connects its
	// result port back to the master and then processes tasks until the
	// master announces completion.
	for i := 0; i < workers; i++ {
		site := dep.AddSite(fmt.Sprintf("worker-site-%d", i), workerCfgs[i])
		name := fmt.Sprintf("worker-%d", i)
		node, err := core.Join(dep.NodeConfig(site.AddHost(name), "bag", name))
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		go runWorker(node, name, taskType, resultType)
	}

	// Connect the master's task port to every worker inbox (one send
	// port, many receive ports: IPL multicast).
	for i := 0; i < workers; i++ {
		target, err := master.LocateReceivePort(fmt.Sprintf("inbox-worker-%d", i), 10*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		if err := taskSend.Connect(target); err != nil {
			log.Fatal(err)
		}
	}

	// Broadcast the task descriptions: every worker receives all tasks
	// and picks the ones assigned to it (task id modulo worker count).
	start := time.Now()
	for task := 0; task < tasks; task++ {
		msg, err := taskSend.NewMessage()
		if err != nil {
			log.Fatal(err)
		}
		msg.WriteString("sum-squares").WriteInt(int64(task)).WriteInt(int64(task * taskSize)).WriteInt(int64((task + 1) * taskSize))
		if err := msg.Finish(); err != nil {
			log.Fatal(err)
		}
	}
	// Announce completion.
	done, _ := taskSend.NewMessage()
	done.WriteString("done")
	if err := done.Finish(); err != nil {
		log.Fatal(err)
	}

	// Collect one partial sum per task.
	var total float64
	for received := 0; received < tasks; received++ {
		msg, err := results.Receive()
		if err != nil {
			log.Fatal(err)
		}
		taskID, _ := msg.ReadInt()
		partial, _ := msg.ReadFloat()
		total += partial
		fmt.Printf("result for task %2d from %-12s partial sum %.6g\n", taskID, msg.Origin.Name, partial)
	}
	fmt.Printf("\nall %d tasks finished in %v, total = %.6g\n", tasks, time.Since(start).Round(time.Millisecond), total)

	// Exact analytical check: sum of k^2 for k in [0, tasks*taskSize).
	n := float64(tasks * taskSize)
	expected := (n - 1) * n * (2*n - 1) / 6
	fmt.Printf("analytical total        = %.6g\n", expected)
}

// runWorker processes broadcast tasks on one node.
func runWorker(node *core.Node, name string, taskType, resultType ipl.PortType) {
	inbox, err := node.CreateReceivePort(taskType, "inbox-"+name)
	if err != nil {
		log.Printf("%s: %v", name, err)
		return
	}
	resultPort, err := node.CreateSendPort(resultType)
	if err != nil {
		log.Printf("%s: %v", name, err)
		return
	}
	target, err := node.LocateReceivePort("results", 10*time.Second)
	if err != nil {
		log.Printf("%s: locate results: %v", name, err)
		return
	}
	if err := resultPort.Connect(target); err != nil {
		log.Printf("%s: connect results: %v", name, err)
		return
	}

	var workerIndex int
	fmt.Sscanf(name, "worker-%d", &workerIndex)
	for {
		msg, err := inbox.Receive()
		if err != nil {
			return
		}
		kind, _ := msg.ReadString()
		if kind == "done" {
			return
		}
		taskID, _ := msg.ReadInt()
		from, _ := msg.ReadInt()
		to, _ := msg.ReadInt()
		if int(taskID)%workers != workerIndex {
			continue // someone else's task
		}
		var sum float64
		for k := from; k < to; k++ {
			sum += float64(k) * float64(k)
		}
		out, err := resultPort.NewMessage()
		if err != nil {
			return
		}
		out.WriteInt(taskID).WriteFloat(sum)
		if err := out.Finish(); err != nil {
			return
		}
	}
}
