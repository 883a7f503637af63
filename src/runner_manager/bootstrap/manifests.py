"""Static example manifests for operators.

Renders everything a namespace owner needs to deploy the setup: the manager
Deployment (replicas 1), the runner Deployment (replicas 0 -- the manager
owns scale-up), a namespaced Role/RoleBinding pair covering exactly the API
surface the manager touches, the GitHub token Secret skeleton, and the
persistent volume claim for the runner install. Both pods meet Pod Security
"restricted". The runner's resource requests are example values to edit,
like the image. Output is deterministic.
"""

from __future__ import annotations

from ..config import Config

# The runner pod's user and group: the non-root "runner" account of the
# actions-runner images. The runner software refuses to run as root anyway.
RUNNER_UID = 1001


def emit_manifests(config: Config, image: str = "REPLACE_WITH_RUNNER_IMAGE") -> str:
    runner_name = config.kube_deployment
    manager_name = f"{runner_name}-manager"
    namespace = config.kube_namespace or "REPLACE_NAMESPACE"
    labels_csv = ",".join(config.policy.runner_labels.as_list())

    return f"""\
# Example manifests for an unprivileged self-hosted runner setup.
# Apply into a namespace you own; no cluster-scoped objects involved.
---
apiVersion: v1
kind: ServiceAccount
metadata:
  name: {manager_name}
  namespace: {namespace}
---
apiVersion: rbac.authorization.k8s.io/v1
kind: Role
metadata:
  name: {manager_name}
  namespace: {namespace}
rules:
  - apiGroups: ["apps"]
    resources: ["deployments"]
    verbs: ["get", "patch"]
---
apiVersion: rbac.authorization.k8s.io/v1
kind: RoleBinding
metadata:
  name: {manager_name}
  namespace: {namespace}
subjects:
  - kind: ServiceAccount
    name: {manager_name}
    namespace: {namespace}
roleRef:
  kind: Role
  name: {manager_name}
  apiGroup: rbac.authorization.k8s.io
---
apiVersion: v1
kind: Secret
metadata:
  name: {manager_name}-github-token
  namespace: {namespace}
type: Opaque
stringData:
  token: REPLACE_WITH_FINE_GRAINED_PAT
---
apiVersion: v1
kind: PersistentVolumeClaim
metadata:
  name: {runner_name}-state
  namespace: {namespace}
spec:
  accessModes: ["ReadWriteMany"]
  resources:
    requests:
      storage: 20Gi
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {manager_name}
  namespace: {namespace}
  labels:
    app: {manager_name}
spec:
  replicas: 1
  selector:
    matchLabels:
      app: {manager_name}
  template:
    metadata:
      labels:
        app: {manager_name}
    spec:
      serviceAccountName: {manager_name}
      # Pod Security "restricted": the manager binds port 8080 and only reads
      # its token, so it runs as any non-root user with no capabilities.
      securityContext:
        runAsNonRoot: true
        runAsUser: 65532
        seccompProfile:
          type: RuntimeDefault
      containers:
        - name: manager
          image: REPLACE_WITH_MANAGER_IMAGE
          command: ["runner-manager"]
          securityContext:
            allowPrivilegeEscalation: false
            capabilities:
              drop: ["ALL"]
          env:
            - name: GH_OWNER
              value: {config.repo.owner}
            - name: GH_REPO
              value: {config.repo.repo}
            - name: RUNNER_LABELS
              value: "{labels_csv}"
            - name: KUBE_DEPLOYMENT
              value: {runner_name}
            - name: GITHUB_TOKEN_FILE
              value: /secrets/github/token
            - name: STATUS_ADDR
              value: ":8080"
          ports:
            - containerPort: 8080
              name: status
          livenessProbe:
            httpGet:
              path: /healthz
              port: 8080
            periodSeconds: 30
          resources:
            requests:
              cpu: 100m
              memory: 64Mi
            limits:
              cpu: "1"
              memory: 256Mi
          volumeMounts:
            - name: github-token
              mountPath: /secrets/github
              readOnly: true
      volumes:
        - name: github-token
          secret:
            secretName: {manager_name}-github-token
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {runner_name}
  namespace: {namespace}
  labels:
    app: {runner_name}
spec:
  replicas: 0
  selector:
    matchLabels:
      app: {runner_name}
  template:
    metadata:
      labels:
        app: {runner_name}
    spec:
      # runner-bootstrap never calls the Kubernetes API: mount no token.
      automountServiceAccountToken: false
      # Pod Security "restricted": the runner runs as a non-root user with no
      # capabilities; fsGroup makes the install volume writable to it.
      securityContext:
        runAsNonRoot: true
        runAsUser: {RUNNER_UID}
        runAsGroup: {RUNNER_UID}
        fsGroup: {RUNNER_UID}
        seccompProfile:
          type: RuntimeDefault
      containers:
        - name: runner
          image: {image}
          command: ["runner-bootstrap", "run", "--dir", "/runner", "--work-dir", "/work"]
          securityContext:
            allowPrivilegeEscalation: false
            capabilities:
              drop: ["ALL"]
          resources:
            requests:
              cpu: 4
              memory: 8Gi
              ephemeral-storage: 80Gi
              nvidia.com/gpu: 1
            limits:
              cpu: 4
              memory: 8Gi
              ephemeral-storage: 80Gi
              nvidia.com/gpu: 1
          volumeMounts:
            - name: runner-state
              mountPath: /runner
            - name: work
              mountPath: /work
      volumes:
        - name: runner-state
          persistentVolumeClaim:
            claimName: {runner_name}-state
        - name: work
          emptyDir:
            sizeLimit: 80Gi
"""
